package netrt

// The reassembler's bounds and the header's stamp period, for the external
// tests that probe them.
const (
	MaxMessage      = maxMessage
	MaxReasmBytes   = maxReasmBytes
	MaxReasmStreams = maxReasmStreams
	NackDelay       = nackDelay
	StampEvery      = stampEvery
)
