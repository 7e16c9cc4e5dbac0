package netrt

// Stats returns cumulative transport counters: datagrams sent, messages
// delivered into mailboxes, and drops (every datagram the receive path
// refuses — one it cannot address or decode, one to a down peer — closed
// mailboxes, frames over maxMessage, simulated loss, full pacer queues).
func (r *Runtime) Stats() (sent, delivered, dropped uint64) {
	return r.sent.Load(), r.delivered.Load(), r.dropped.Load()
}

// ClassBytes returns cumulative transmitted wire bytes split by message
// class (frame header + encoded body; fragment and retransmit framing
// overhead is not double-counted). Control bytes cover heartbeats,
// reconciliation, install/remove multicast, and topology/ack traffic —
// the quantity the paper's sharing argument (Fig 13) bounds as query
// count grows over one mesh.
func (r *Runtime) ClassBytes() (controlBytes, dataBytes uint64) {
	return r.ctlBytes.Load(), r.dataBytes.Load()
}

// NetStats is the datagram-level view of the transport: how many
// datagrams actually hit the wire, how many were trains, how many frames
// those trains carried, and how many sockets host the local peers. On a
// backlogged socket Datagrams is well below the frame count (sent + probes
// + NACKs).
type NetStats struct {
	Datagrams   uint64
	Trains      uint64
	TrainFrames uint64
	Sockets     int
	// Per-class frame counts (a frame is one transport Send; a train packs
	// several into one datagram). Every upstream summary is one data frame.
	CtlFrames  uint64
	DataFrames uint64
	// Duplicated counts the control frames sent twice (SetCtrlDup).
	Duplicated uint64
	// RTTSamples counts the RTT samples the local peers took: one per
	// echoed stamp and one per pong.
	RTTSamples uint64
	// HeaderBytes counts the transport header bytes Send wrote ahead of
	// the message frames that fit the MTU: the kind byte, the two peer
	// indices, and the transmit stamp and the echo and its hold where the
	// frame carries them. ClassBytes counts them too, once per frame, with
	// the message bodies. A fragmented frame writes no such header.
	HeaderBytes uint64
}

// NetStats returns the datagram-level counters.
func (r *Runtime) NetStats() NetStats {
	return NetStats{
		Datagrams:   r.datagrams.Load(),
		Trains:      r.trains.Load(),
		TrainFrames: r.trainFrames.Load(),
		Sockets:     len(r.socks),
		CtlFrames:   r.ctlFrames.Load(),
		DataFrames:  r.dataFrames.Load(),
		Duplicated:  r.duplicated.Load(),
		RTTSamples:  r.rttSamples.Load(),
		HeaderBytes: r.headerBytes.Load(),
	}
}

// FragStats reports the fragmentation layer's counters across this
// runtime's local peers.
type FragStats struct {
	// StreamsSent counts fragment trains transmitted (frames over the MTU).
	StreamsSent uint64
	// FragsSent counts fragment datagrams submitted (first transmissions).
	FragsSent uint64
	// MaxStreamFrags is the longest train sent — MaxStreamFrags × the
	// fragment payload bounds the largest frame that crossed the wire.
	MaxStreamFrags uint64
	// Retransmits counts fragments resent in answer to NACKs.
	Retransmits uint64
	// NacksSent counts repair requests this runtime's receivers issued.
	NacksSent uint64
	// Reassembled counts frames successfully rebuilt from fragments.
	Reassembled uint64
	// ReassemblyEvicted counts partial streams dropped (stale, oversized,
	// or displaced by the memory bound).
	ReassemblyEvicted uint64
}

// FragStats returns the fragmentation counters.
func (r *Runtime) FragStats() FragStats {
	st := FragStats{
		StreamsSent:    r.fragStreams.Load(),
		FragsSent:      r.fragsSent.Load(),
		MaxStreamFrags: r.maxStreamFrags.Load(),
		Retransmits:    r.retransmits.Load(),
		NacksSent:      r.nacksSent.Load(),
	}
	for _, p := range r.local {
		done, evicted := r.lps[p].reasm.Stats()
		st.Reassembled += done
		st.ReassemblyEvicted += evicted
	}
	return st
}
