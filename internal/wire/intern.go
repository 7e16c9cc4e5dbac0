package wire

import "sync"

// The batch codec decodes the same handful of query names in every key
// table (a single envelope names its operator by install Seq and carries
// no name); a process-wide intern table turns those per-message string
// allocations into map lookups. The m[string(b)] form below compiles to a
// no-allocation map access, so interning an already-known key costs no
// heap at all.
var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

// maxInterned bounds the table. A decoder fed adversarial names (fuzzed
// or hostile datagrams) must not grow it without limit; on overflow the
// table resets wholesale and re-warms with the live working set — simpler
// than LRU, and the steady state (few long-lived query names) re-interns
// in a handful of messages.
const maxInterned = 1024

// Intern returns a canonical string equal to b, allocating only the first
// time a value is seen.
func Intern(b []byte) string {
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) >= maxInterned {
		internTab = make(map[string]string, maxInterned)
	}
	internTab[s] = s
	internMu.Unlock()
	return s
}

// InternedString reads a length-prefixed string through the intern table:
// recurring keys decode without allocating.
func (r *Reader) InternedString() (string, error) {
	n, err := r.Uvarint()
	if err != nil || uint64(r.Remaining()) < n {
		return "", ErrCorrupt
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return Intern(b), nil
}
