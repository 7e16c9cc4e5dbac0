package measure

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval. Spans of one window share the window's id
// as ancestor; Parent is empty for a root span.
type Span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil Recorder
// records nothing, which is how the measured (untraced) run is taken.
type Recorder struct {
	Epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// Add records one span; times are stored as nanoseconds since Epoch.
func (r *Recorder) Add(name, id, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	sp := Span{Name: name, ID: id, Parent: parent,
		StartNs: start.Sub(r.Epoch).Nanoseconds(), EndNs: end.Sub(r.Epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// DurationsMs returns the durations of every span with the given name.
func DurationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// not subtracted twice; a child reaching outside its parent is clipped).
func SelfTimes(spans []Span) map[string]int64 {
	kids := map[string][]Span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// WriteSpans writes the spans as one JSON array.
func WriteSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
