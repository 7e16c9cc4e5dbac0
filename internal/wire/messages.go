package wire

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/tuple"
)

// This file is the full peer-message codec: every message Mortar peers
// exchange has an Encode/Decode pair here, and EncodeMessage/DecodeMessage
// frame them with a version byte and a one-byte kind tag. The fabric
// encodes each message once at transmit — the encoded length is the size
// the emulator charges, and socket backends (runtime/netrt) put exactly
// these bytes on the wire as UDP datagrams, the way the prototype's UdpCC
// datagrams carried the real protocol.
//
// Frame layout: [Version][kind][payload]. All decoders validate counts
// against the remaining buffer before allocating, return errors wrapping
// ErrCorrupt, and never panic on corrupt input (fuzz targets pin this).

// Version is the wire-format version byte leading every message frame.
// The policy: a sender writes the current version and a decoder reads
// exactly that version, refusing every other as corrupt. A version bump,
// like a change to netrt's transport header, is therefore an all-at-once
// upgrade: every process of a federation runs the same release.
//
// Version 10 names a summary's operator by the Seq of the install that
// made it, one uvarint where version 9 wrote the query's name; the Seq
// implies the epoch, so a summary carries none (flags bit 4 is reserved).
// Version 9 carries a query's frame time, not its issue instant: QueryMeta
// ends in Age, a varint of nanoseconds. Version 8 sent a summary only what
// its receiver cannot compute. One flags byte holds the boundary bit, the
// TTL-down counter in two bits, and whether a window index follows: a
// syncless time-window summary travels without its index, which the
// receiver recomputes from the age (§5.1). A summary's age is scaled at
// microsecond precision. Values take their shortest lossless form (since
// version 7): a bit array is the shorter of dense words and set-bit gaps,
// sorted and ordered keys are front-coded, and values whose numbers are
// all small integers take their integral kind (scored entries flag their
// score and payload columns apart). The envelope carries no SentAt and
// the heartbeat is [Seq][Hash].
const Version = 10

// AllEpochs is the Remove.Epoch / RemovedMark.Epoch value meaning the
// removal covers every epoch of the query — a whole-query removal.
const AllEpochs = ^uint32(0)

// Message kind tags.
const (
	MsgEnvelope      = 1 // a summary tuple in flight (data plane)
	MsgHeartbeat     = 2
	MsgInstall       = 3
	MsgRemove        = 4
	MsgReconSummary  = 5
	MsgReconDefs     = 6
	MsgTopoRequest   = 7
	MsgTopoReply     = 8
	MsgInstallAck    = 9  // a peer reports a wired epoch to the query root
	MsgEnvelopeBatch = 10 // N summaries to one next hop in one frame (no peer sends it; see batch.go)
)

// QueryMeta is the part of a query definition every hosting peer keeps: the
// operator type, its query-specific arguments, and the window. It is small
// and travels in install and reconciliation messages; tree topology stays
// at the query root, which acts as the topology server (§6.1).
type QueryMeta struct {
	// Name identifies the query; the storage layer guarantees single-writer
	// semantics per name.
	Name string
	// Seq is the management command sequence number issued by the object
	// store; peers use it to order installs against removals.
	Seq uint64
	// Epoch versions the query's physical plan: a replan reinstalls the
	// same logical query under the next epoch, the two epochs run side by
	// side while the new one wires up, and the old epoch is then retired
	// with an epoch-scoped removal (make-before-break). Peers key instances
	// on (Name, Epoch).
	Epoch uint32
	// OpName and OpArgs choose the in-network operator from the registry.
	OpName string
	OpArgs []string
	// Window is the operator's sliding window.
	Window tuple.WindowSpec
	// FilterKey, when non-empty, makes source operators drop raw tuples
	// whose Key differs (the Wi-Fi select stage, §7.4).
	FilterKey string
	// Root is the peer hosting the root operator and topology service.
	Root int
	// Age is the sender's frame time for the query as the message left
	// (§5.1: t_ref begins at the age of the install message). A peer
	// installing from the message starts its frame at Age plus the flight
	// since the message's SentAt; a root installing a query at Age, or at
	// its running epoch's frame time for a replan.
	Age time.Duration
}

// Neighbors is one peer's position in a query's tree set: its parent,
// children, level and subtree size per tree. This is what the install
// multicast carries per node and what the topology service returns during
// recovery.
type Neighbors struct {
	Parents  []int   // per tree; -1 at the root
	Children [][]int // per tree
	Levels   []int   // per tree
	// Subtree is how many members the peer's subtree holds on each tree,
	// itself included: the Count at which a window's entry has heard from
	// everyone below and can leave without waiting out its timeout. A nil
	// Subtree means the counts are unknown and the operator evicts on its
	// timer only; the codec writes it as zeros.
	Subtree []int
}

// Envelope wraps a summary tuple with its per-hop routing state (§3.3):
// the tree the current hop travels on and the TTL-down counter bounding
// flex-down steps. The per-tree level history lives in the summary itself
// (tuple.Summary.Levels) because it survives merging.
//
// On the wire the envelope names its operator by Seq alone: S.Query and
// Epoch are not encoded and a decoded envelope returns them "" and 0. The
// receiver resolves the Seq to its installed instance, which knows both.
type Envelope struct {
	S       tuple.Summary
	Tree    int // tree of the current hop
	TTLDown uint8
	// Seq is the QueryMeta.Seq of the install that made the sending
	// instance. Each live (name, epoch) owns its Seq, so it names the
	// instance — the query and the epoch whose tree set the summary may
	// merge into — at every peer that runs the same install.
	Seq uint64
	// SentAt is the transmit time on the receiver's clock, from which the
	// receiver derives the flight time (UdpCC RTT/2). It is not on the
	// wire: the transport sets it at delivery (StampSentAt) — netrt from
	// the measured flight, simrt from the receiver's clock read at the
	// moment of sending.
	SentAt time.Duration
	// Epoch is the query epoch the summary belongs to. It is not on the
	// wire (the Seq implies it); the batch codec alone reads it.
	Epoch uint32
}

// Heartbeat flows parent -> child every heartbeat period. Every few beats
// it piggybacks the reconciliation hash of the sender's query set. It
// carries no network coordinate: runtime/netrt fits and spreads those on
// its own probe frames and the RTT echoes its frame headers carry.
type Heartbeat struct {
	Seq  uint64
	Hash uint64 // 0 when not piggybacked this beat
}

// Install carries a chunk of the install multicast: per-member metadata
// and tree position, plus the forwarding edges within the chunk.
type Install struct {
	Meta QueryMeta
	// Members maps peer -> its neighbors record.
	Members map[int]Neighbors
	// Forward maps peer -> the chunk members it must forward to.
	Forward map[int][]int
	SentAt  time.Duration // as on Envelope, for QueryMeta.Age
}

// Remove multicasts a query removal along the same chunking. Epoch scopes
// it: only instances with epoch <= Epoch are torn down, so a delayed
// old-epoch removal can never take a newer epoch with it. AllEpochs means
// a whole-query removal.
type Remove struct {
	Name    string
	Seq     uint64
	Epoch   uint32
	Forward map[int][]int
}

// QueryKey identifies one installed instance in reconciliation state: the
// query name plus the plan epoch. During a migration a peer legitimately
// hosts two epochs of the same name side by side.
type QueryKey struct {
	Name  string
	Epoch uint32
}

// RemovedMark is a cached removal: the removal's sequence number and the
// highest epoch it covers (AllEpochs for whole-query removals). An install
// is superseded when its seq does not exceed the mark's AND its epoch is
// covered — the epoch condition is what keeps a stale old-epoch removal
// from suppressing the newer epoch's reinstalls.
//
// A query name carries a *set* of marks, not one: a whole-query removal
// followed by a re-creation and an epoch retirement yields two removals
// whose coverage rectangles (seq ≤ S, epoch ≤ E) are incomparable, and
// collapsing them into either one would leak zombie instances in some
// replay ordering. Peers keep the non-dominated set (an antichain, tiny
// in practice) and reconciliation exchanges it whole.
type RemovedMark struct {
	Seq   uint64
	Epoch uint32
}

// Dominates reports whether mark m covers at least everything o does.
func (m RemovedMark) Dominates(o RemovedMark) bool {
	return m.Seq >= o.Seq && m.Epoch >= o.Epoch
}

// Covers reports whether the mark supersedes an install of the given
// (seq, epoch).
func (m RemovedMark) Covers(seq uint64, epoch uint32) bool {
	return m.Seq >= seq && epoch <= m.Epoch
}

// ReconSummary opens pair-wise reconciliation: the full (small) summary of
// the sender's installed queries and cached removals (§6.1), keyed on
// (name, epoch) so migrating queries reconcile both live epochs.
type ReconSummary struct {
	Installed map[QueryKey]uint64 // (name, epoch) -> seq
	Removed   map[string][]RemovedMark
	Metas     []QueryMeta   // metadata for everything installed, so the peer can adopt
	SentAt    time.Duration // as on Envelope, for QueryMeta.Age
}

// ReconDefs is the reply: metadata the receiver was missing and removals
// it had not seen.
type ReconDefs struct {
	Metas   []QueryMeta
	Removed map[string][]RemovedMark
	SentAt  time.Duration // as on Envelope, for QueryMeta.Age
}

// TopoRequest asks a query root (the topology server) for the requester's
// parent/child sets in one epoch's tree set (§6.1).
type TopoRequest struct {
	Query string
	Epoch uint32
	Peer  int
}

// TopoReply returns the requester's position in the tree set.
type TopoReply struct {
	Query string
	Epoch uint32
	Seq   uint64
	NB    Neighbors
	// Unknown is set when the root no longer knows the query (removed).
	Unknown bool
}

// InstallAck reports to the query root that Peer has installed and wired
// the given epoch. The root retires the previous epoch once every member
// has acked the new one (make-before-break); peers that still host an
// older epoch re-ack on reconciliation beats, so a lost ack cannot stall a
// migration forever. Epoch-0 installs are never acked — the initial
// install has nothing to retire.
type InstallAck struct {
	Query string
	Epoch uint32
	Seq   uint64
	Peer  int
}

// StampSentAt returns a delivered message with its SentAt, if it has one,
// set to at, the transmit time on the receiver's clock.
func StampSentAt(msg any, at time.Duration) any {
	switch m := msg.(type) {
	case *Envelope:
		m.SentAt = at
	case Install:
		m.SentAt = at
		return m
	case ReconSummary:
		m.SentAt = at
		return m
	case ReconDefs:
		m.SentAt = at
		return m
	}
	return msg
}

func (w *Buffer) appendKind(k byte) { w.b = append(w.b, Version, k) }

// EncodeMessage appends a complete message frame: version byte, kind tag,
// payload. It accepts exactly the message types above (the envelope by
// pointer, matching how the data path passes it).
func EncodeMessage(w *Buffer, msg any) error {
	switch m := msg.(type) {
	case *Envelope:
		w.appendKind(MsgEnvelope)
		return EncodeEnvelope(w, m)
	case *EnvelopeBatch:
		// No peer sends a batch; the case serves the decoder's tests and the
		// benchmark's batch codec rows, and goes with the benchmark's own
		// codec rows (see batch.go).
		w.appendKind(MsgEnvelopeBatch)
		return EncodeEnvelopeBatch(w, m)
	case Heartbeat:
		w.appendKind(MsgHeartbeat)
		EncodeHeartbeat(w, m)
	case Install:
		w.appendKind(MsgInstall)
		return EncodeInstall(w, m)
	case Remove:
		w.appendKind(MsgRemove)
		EncodeRemove(w, m)
	case ReconSummary:
		w.appendKind(MsgReconSummary)
		EncodeReconSummary(w, m)
	case ReconDefs:
		w.appendKind(MsgReconDefs)
		EncodeReconDefs(w, m)
	case TopoRequest:
		w.appendKind(MsgTopoRequest)
		EncodeTopoRequest(w, m)
	case TopoReply:
		w.appendKind(MsgTopoReply)
		EncodeTopoReply(w, m)
	case InstallAck:
		w.appendKind(MsgInstallAck)
		EncodeInstallAck(w, m)
	default:
		return fmt.Errorf("wire: unsupported message type %T", msg)
	}
	return nil
}

// DecodeMessage decodes a complete message frame produced by
// EncodeMessage. Envelopes come back as *Envelope, everything else by
// value, so the result feeds a type switch directly. Trailing bytes after
// the payload are corruption.
func DecodeMessage(b []byte) (any, error) {
	r := NewReader(b)
	v, err := r.Byte()
	if err != nil || v != Version {
		return nil, fmt.Errorf("wire: bad version: %w", ErrCorrupt)
	}
	kind, err := r.Byte()
	if err != nil {
		return nil, err
	}
	var msg any
	switch kind {
	case MsgEnvelope:
		var e Envelope
		if e, err = DecodeEnvelope(r); err == nil {
			msg = &e
		}
	case MsgHeartbeat:
		msg, err = DecodeHeartbeat(r)
	case MsgInstall:
		msg, err = DecodeInstall(r)
	case MsgRemove:
		msg, err = DecodeRemove(r)
	case MsgReconSummary:
		msg, err = DecodeReconSummary(r)
	case MsgReconDefs:
		msg, err = DecodeReconDefs(r)
	case MsgTopoRequest:
		msg, err = DecodeTopoRequest(r)
	case MsgTopoReply:
		msg, err = DecodeTopoReply(r)
	case MsgInstallAck:
		msg, err = DecodeInstallAck(r)
	case MsgEnvelopeBatch:
		var b *EnvelopeBatch
		if b, err = DecodeEnvelopeBatch(r); err == nil {
			msg = b
		}
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d: %w", kind, ErrCorrupt)
	}
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes: %w", r.Remaining(), ErrCorrupt)
	}
	return msg, nil
}

// --- Envelope ---

// EncodeEnvelope appends an envelope payload: the summary with its routing
// state and install Seq, then the hop's tree. SentAt, S.Query and Epoch are
// not encoded.
func EncodeEnvelope(w *Buffer, e *Envelope) error {
	if err := EncodeSummary(w, e.S, e.TTLDown, e.Seq); err != nil {
		return err
	}
	w.PutVarint(int64(e.Tree))
	return nil
}

// DecodeEnvelope reads an envelope payload. SentAt, S.Query and Epoch are
// not on the wire and come back zero.
func DecodeEnvelope(r *Reader) (e Envelope, err error) {
	if e.S, e.TTLDown, e.Seq, err = DecodeSummary(r); err != nil {
		return
	}
	var tree int64
	tree, err = r.Varint()
	e.Tree = int(tree)
	return
}

// epoch reads one epoch field, bounds-checked against uint32.
func (r *Reader) epoch() (uint32, error) {
	v, err := r.Uvarint()
	if err != nil || v > uint64(AllEpochs) {
		return 0, ErrCorrupt
	}
	return uint32(v), nil
}

// --- Heartbeat ---

// EncodeHeartbeat appends a heartbeat payload: seq, then hash.
func EncodeHeartbeat(w *Buffer, m Heartbeat) {
	w.PutUvarint(m.Seq)
	w.PutUvarint(m.Hash)
}

// DecodeHeartbeat reads a heartbeat payload.
func DecodeHeartbeat(r *Reader) (m Heartbeat, err error) {
	if m.Seq, err = r.Uvarint(); err != nil {
		return
	}
	m.Hash, err = r.Uvarint()
	return
}

// --- QueryMeta / Neighbors ---

// EncodeQueryMeta appends query metadata.
func EncodeQueryMeta(w *Buffer, m QueryMeta) {
	w.PutString(m.Name)
	w.PutUvarint(m.Seq)
	w.PutUvarint(uint64(m.Epoch))
	w.PutString(m.OpName)
	w.PutUvarint(uint64(len(m.OpArgs)))
	for _, a := range m.OpArgs {
		w.PutString(a)
	}
	w.PutByte(byte(m.Window.Kind))
	w.PutDuration(m.Window.Range)
	w.PutDuration(m.Window.Slide)
	w.PutVarint(int64(m.Window.RangeN))
	w.PutVarint(int64(m.Window.SlideN))
	w.PutString(m.FilterKey)
	w.PutVarint(int64(m.Root))
	w.PutDuration(m.Age)
}

// DecodeQueryMeta reads query metadata.
func DecodeQueryMeta(r *Reader) (m QueryMeta, err error) {
	if m.Name, err = r.String(); err != nil {
		return
	}
	if m.Seq, err = r.Uvarint(); err != nil {
		return
	}
	if m.Epoch, err = r.epoch(); err != nil {
		return
	}
	if m.OpName, err = r.String(); err != nil {
		return
	}
	var n uint64
	if n, err = r.Uvarint(); err != nil || n > uint64(r.Remaining()) {
		err = ErrCorrupt
		return
	}
	if n > 0 {
		m.OpArgs = make([]string, n)
		for i := range m.OpArgs {
			if m.OpArgs[i], err = r.String(); err != nil {
				return
			}
		}
	}
	var kind byte
	if kind, err = r.Byte(); err != nil {
		return
	}
	m.Window.Kind = tuple.WindowKind(kind)
	if m.Window.Range, err = r.Duration(); err != nil {
		return
	}
	if m.Window.Slide, err = r.Duration(); err != nil {
		return
	}
	var iv int64
	if iv, err = r.Varint(); err != nil {
		return
	}
	m.Window.RangeN = int(iv)
	if iv, err = r.Varint(); err != nil {
		return
	}
	m.Window.SlideN = int(iv)
	if m.FilterKey, err = r.String(); err != nil {
		return
	}
	if iv, err = r.Varint(); err != nil {
		return
	}
	m.Root = int(iv)
	m.Age, err = r.Duration()
	return
}

// EncodeNeighbors appends a neighbors record. Parents, Children, and
// Levels must be parallel (one entry per tree), as neighborsFor builds
// them; a record without subtree counts encodes them as 0, unknown.
func EncodeNeighbors(w *Buffer, nb Neighbors) {
	w.PutUvarint(uint64(len(nb.Parents)))
	for t := range nb.Parents {
		w.PutVarint(int64(nb.Parents[t]))
		w.PutVarint(int64(nb.Levels[t]))
		var sub int
		if t < len(nb.Subtree) && nb.Subtree[t] > 0 {
			sub = nb.Subtree[t]
		}
		w.PutUvarint(uint64(sub))
		w.PutUvarint(uint64(len(nb.Children[t])))
		for _, c := range nb.Children[t] {
			w.PutVarint(int64(c))
		}
	}
}

// DecodeNeighbors reads a neighbors record.
func DecodeNeighbors(r *Reader) (nb Neighbors, err error) {
	var d uint64
	if d, err = r.Uvarint(); err != nil || d > uint64(r.Remaining()) {
		err = ErrCorrupt
		return
	}
	if d == 0 {
		return
	}
	nb.Parents = make([]int, d)
	nb.Children = make([][]int, d)
	nb.Levels = make([]int, d)
	nb.Subtree = make([]int, d)
	for t := uint64(0); t < d; t++ {
		var v int64
		if v, err = r.Varint(); err != nil {
			return
		}
		nb.Parents[t] = int(v)
		if v, err = r.Varint(); err != nil {
			return
		}
		nb.Levels[t] = int(v)
		var n uint64
		if n, err = r.Uvarint(); err != nil || n > math.MaxInt32 {
			err = ErrCorrupt
			return
		}
		nb.Subtree[t] = int(n)
		if n, err = r.Uvarint(); err != nil || n > uint64(r.Remaining()) {
			err = ErrCorrupt
			return
		}
		if n > 0 {
			nb.Children[t] = make([]int, n)
			for i := range nb.Children[t] {
				if v, err = r.Varint(); err != nil {
					return
				}
				nb.Children[t][i] = int(v)
			}
		}
	}
	return
}

// --- Install / Remove ---

// sortedPeers returns a map's peer keys in ascending order, for
// deterministic encoding.
func sortedPeers[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func encodeForward(w *Buffer, fwd map[int][]int) {
	w.PutUvarint(uint64(len(fwd)))
	for _, p := range sortedPeers(fwd) {
		w.PutVarint(int64(p))
		w.PutUvarint(uint64(len(fwd[p])))
		for _, q := range fwd[p] {
			w.PutVarint(int64(q))
		}
	}
}

func decodeForward(r *Reader) (map[int][]int, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	fwd := make(map[int][]int, n)
	for i := uint64(0); i < n; i++ {
		p, err := r.Varint()
		if err != nil {
			return nil, err
		}
		m, err := r.Uvarint()
		if err != nil || m > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		list := make([]int, m)
		for j := range list {
			q, err := r.Varint()
			if err != nil {
				return nil, err
			}
			list[j] = int(q)
		}
		fwd[int(p)] = list
	}
	return fwd, nil
}

// EncodeInstall appends an install-chunk payload.
func EncodeInstall(w *Buffer, m Install) error {
	EncodeQueryMeta(w, m.Meta)
	w.PutUvarint(uint64(len(m.Members)))
	for _, p := range sortedPeers(m.Members) {
		w.PutVarint(int64(p))
		EncodeNeighbors(w, m.Members[p])
	}
	encodeForward(w, m.Forward)
	return nil
}

// DecodeInstall reads an install-chunk payload.
func DecodeInstall(r *Reader) (m Install, err error) {
	if m.Meta, err = DecodeQueryMeta(r); err != nil {
		return
	}
	var n uint64
	if n, err = r.Uvarint(); err != nil || n > uint64(r.Remaining()) {
		err = ErrCorrupt
		return
	}
	if n > 0 {
		m.Members = make(map[int]Neighbors, n)
	}
	for i := uint64(0); i < n; i++ {
		var p int64
		if p, err = r.Varint(); err != nil {
			return
		}
		var nb Neighbors
		if nb, err = DecodeNeighbors(r); err != nil {
			return
		}
		m.Members[int(p)] = nb
	}
	m.Forward, err = decodeForward(r)
	return
}

// EncodeRemove appends a remove-multicast payload.
func EncodeRemove(w *Buffer, m Remove) {
	w.PutString(m.Name)
	w.PutUvarint(m.Seq)
	w.PutUvarint(uint64(m.Epoch))
	encodeForward(w, m.Forward)
}

// DecodeRemove reads a remove-multicast payload.
func DecodeRemove(r *Reader) (m Remove, err error) {
	if m.Name, err = r.String(); err != nil {
		return
	}
	if m.Seq, err = r.Uvarint(); err != nil {
		return
	}
	if m.Epoch, err = r.epoch(); err != nil {
		return
	}
	m.Forward, err = decodeForward(r)
	return
}

// --- Reconciliation ---

// sortedKeys returns an installed map's keys ordered by (name, epoch), for
// deterministic encoding.
func sortedKeys(m map[QueryKey]uint64) []QueryKey {
	keys := make([]QueryKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Epoch < keys[j].Epoch
	})
	return keys
}

func encodeInstalled(w *Buffer, m map[QueryKey]uint64) {
	w.PutUvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.PutString(k.Name)
		w.PutUvarint(uint64(k.Epoch))
		w.PutUvarint(m[k])
	}
}

// decodeInstalled reads the installed set: (name, epoch, seq) triples.
func decodeInstalled(r *Reader) (map[QueryKey]uint64, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[QueryKey]uint64, n)
	for i := uint64(0); i < n; i++ {
		var k QueryKey
		if k.Name, err = r.String(); err != nil {
			return nil, err
		}
		if k.Epoch, err = r.epoch(); err != nil {
			return nil, err
		}
		seq, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		m[k] = seq
	}
	return m, nil
}

// SortMarks orders a mark set by (seq, epoch) — the canonical order the
// codec encodes and peers iterate.
func SortMarks(marks []RemovedMark) {
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].Seq != marks[j].Seq {
			return marks[i].Seq < marks[j].Seq
		}
		return marks[i].Epoch < marks[j].Epoch
	})
}

func encodeRemovedMarks(w *Buffer, m map[string][]RemovedMark) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	w.PutUvarint(uint64(len(names)))
	for _, name := range names {
		w.PutString(name)
		marks := append([]RemovedMark(nil), m[name]...)
		SortMarks(marks)
		w.PutUvarint(uint64(len(marks)))
		for _, mark := range marks {
			w.PutUvarint(mark.Seq)
			w.PutUvarint(uint64(mark.Epoch))
		}
	}
}

// decodeRemovedMarks reads the removal set.
func decodeRemovedMarks(r *Reader) (map[string][]RemovedMark, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string][]RemovedMark, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		cnt, err := r.Uvarint()
		if err != nil || cnt > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		marks := make([]RemovedMark, cnt)
		for j := range marks {
			if marks[j].Seq, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if marks[j].Epoch, err = r.epoch(); err != nil {
				return nil, err
			}
		}
		m[name] = marks
	}
	return m, nil
}

func encodeMetas(w *Buffer, metas []QueryMeta) {
	w.PutUvarint(uint64(len(metas)))
	for _, m := range metas {
		EncodeQueryMeta(w, m)
	}
}

func decodeMetas(r *Reader) ([]QueryMeta, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	metas := make([]QueryMeta, n)
	for i := range metas {
		if metas[i], err = DecodeQueryMeta(r); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

// EncodeReconSummary appends a reconciliation-summary payload.
func EncodeReconSummary(w *Buffer, m ReconSummary) {
	encodeInstalled(w, m.Installed)
	encodeRemovedMarks(w, m.Removed)
	encodeMetas(w, m.Metas)
}

// DecodeReconSummary reads a reconciliation-summary payload.
func DecodeReconSummary(r *Reader) (m ReconSummary, err error) {
	if m.Installed, err = decodeInstalled(r); err != nil {
		return
	}
	if m.Removed, err = decodeRemovedMarks(r); err != nil {
		return
	}
	m.Metas, err = decodeMetas(r)
	return
}

// EncodeReconDefs appends a reconciliation-reply payload.
func EncodeReconDefs(w *Buffer, m ReconDefs) {
	encodeMetas(w, m.Metas)
	encodeRemovedMarks(w, m.Removed)
}

// DecodeReconDefs reads a reconciliation-reply payload.
func DecodeReconDefs(r *Reader) (m ReconDefs, err error) {
	if m.Metas, err = decodeMetas(r); err != nil {
		return
	}
	m.Removed, err = decodeRemovedMarks(r)
	return
}

// --- Topology service ---

// EncodeTopoRequest appends a topology-request payload.
func EncodeTopoRequest(w *Buffer, m TopoRequest) {
	w.PutString(m.Query)
	w.PutUvarint(uint64(m.Epoch))
	w.PutVarint(int64(m.Peer))
}

// DecodeTopoRequest reads a topology-request payload.
func DecodeTopoRequest(r *Reader) (m TopoRequest, err error) {
	if m.Query, err = r.String(); err != nil {
		return
	}
	if m.Epoch, err = r.epoch(); err != nil {
		return
	}
	var p int64
	if p, err = r.Varint(); err != nil {
		return
	}
	m.Peer = int(p)
	return
}

// EncodeTopoReply appends a topology-reply payload.
func EncodeTopoReply(w *Buffer, m TopoReply) {
	w.PutString(m.Query)
	w.PutUvarint(uint64(m.Epoch))
	w.PutUvarint(m.Seq)
	EncodeNeighbors(w, m.NB)
	w.PutBool(m.Unknown)
}

// DecodeTopoReply reads a topology-reply payload.
func DecodeTopoReply(r *Reader) (m TopoReply, err error) {
	if m.Query, err = r.String(); err != nil {
		return
	}
	if m.Epoch, err = r.epoch(); err != nil {
		return
	}
	if m.Seq, err = r.Uvarint(); err != nil {
		return
	}
	if m.NB, err = DecodeNeighbors(r); err != nil {
		return
	}
	m.Unknown, err = r.Bool()
	return
}

// --- Install acknowledgement ---

// EncodeInstallAck appends an install-ack payload.
func EncodeInstallAck(w *Buffer, m InstallAck) {
	w.PutString(m.Query)
	w.PutUvarint(uint64(m.Epoch))
	w.PutUvarint(m.Seq)
	w.PutVarint(int64(m.Peer))
}

// DecodeInstallAck reads an install-ack payload.
func DecodeInstallAck(r *Reader) (m InstallAck, err error) {
	if m.Query, err = r.String(); err != nil {
		return
	}
	if m.Epoch, err = r.epoch(); err != nil {
		return
	}
	if m.Seq, err = r.Uvarint(); err != nil {
		return
	}
	var p int64
	if p, err = r.Varint(); err != nil {
		return
	}
	m.Peer = int(p)
	return
}
