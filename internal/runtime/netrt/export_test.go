package netrt

// The reassembler's bounds, for the external tests that probe them.
const (
	MaxMessage      = maxMessage
	MaxReasmBytes   = maxReasmBytes
	MaxReasmStreams = maxReasmStreams
	NackDelay       = nackDelay
)
