package netrt

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
