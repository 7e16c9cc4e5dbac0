package netrt

import "time"

// The reassembler's bounds, the header's stamp period and the probe kinds,
// for the external tests that exercise them.
const (
	MaxMessage      = maxMessage
	MaxReasmBytes   = maxReasmBytes
	MaxReasmStreams = maxReasmStreams
	NackDelay       = nackDelay
	StampEvery      = stampEvery
	FramePing       = framePing
	FramePong       = framePong
)

// StaggerStarts makes each runtime assembled after it — NewGroup assembles
// one per range, in order — start its clock d before the previous one, as
// processes started d apart would, the first now. The returned func
// restores the real start.
func StaggerStarts(d time.Duration) (restore func()) {
	next := time.Now()
	clockStart = func() time.Time {
		t := next
		next = next.Add(-d)
		return t
	}
	return func() { clockStart = time.Now }
}
