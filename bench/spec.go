package main

import (
	"time"

	"repro/bench/measure"
)

// tenant is one query a workload installs.
type tenant struct {
	name string
	op   string
	args []string
	// filterKey restricts the tenant to raw tuples carrying this key.
	filterKey string
}

// latTenant reports, per window, the newest generator stamp that reached
// it: `max` over Vals[1]. Installed over HTTP; its NDJSON stream is the
// one the latency client reads.
const latName = "lat"

// spec is one workload: which backend, what overlay, which tenants, and
// how tuples are offered. Everything not named here is mortar.DefaultConfig
// and the backend's default Options, so a later change of a default shows.
type spec struct {
	name string
	why  string

	udp            bool // netrt over loopback UDP, else livert
	peers          int
	peersPerSocket int
	window         time.Duration
	bf, trees      int
	tenants        []tenant

	// closedLoop offers 64-tuple batches as fast as the peers absorb them;
	// otherwise every tick (tickEvery) offers perTick tuples to each peer
	// on a schedule that does not slow when the system does.
	closedLoop bool
	tickEvery  time.Duration
	perTick    int
	// zipfKeys draws tuple keys from a Zipf distribution (sketch tenants).
	zipfKeys bool
	// churn runs the seed-derived fault schedule over the measured span.
	churn bool
}

// sumTenants returns the indices of the workload's sum tenants, the ones
// value mass is conserved over.
func (sp *spec) sumTenants() []int {
	var out []int
	for i, t := range sp.tenants {
		if t.op == "sum" {
			out = append(out, i)
		}
	}
	return out
}

func sumTenant(name string) tenant { return tenant{name: name, op: "sum", args: []string{"0"}} }

var specs = []spec{
	{
		name:  "ingest-sat",
		why:   "closed-loop 64-tuple batches into 8 in-process peers: workload, actor mailbox, mortar ingest and ops window merge do all the work, network and gateway almost none",
		peers: 8, window: 100 * time.Millisecond, bf: 8, trees: 2,
		tenants: []tenant{
			{name: latName, op: "max", args: []string{"1"}, filterKey: latName},
			sumTenant("mass"),
		},
		closedLoop: true, perTick: 2, // perTick: the one round set-up offers
	},
	{
		name: "fanin-wan",
		why:  "open-loop 12.8k tuples/s into 64 UDP peers, 3 hops over a 1-57 ms delay topology: ingest idles; mortar staging, tslist, wire, netrt pacer and gateway carry the result",
		udp:  true, peers: 64, peersPerSocket: 8, window: 250 * time.Millisecond, bf: 4, trees: 2,
		tenants: []tenant{
			{name: latName, op: "max", args: []string{"1"}},
			sumTenant("mass"), sumTenant("sum1"), sumTenant("sum2"),
		},
		tickEvery: 10 * time.Millisecond, perTick: 2,
	},
	{
		name: "sketch-wan",
		why:  "fanin-wan's overlay and rate with distinct, bloom, topk and entropy tenants over Zipf keys: payload-bound frames, byte-ceiling flushes and fragment trains instead of header-bound ones",
		udp:  true, peers: 64, peersPerSocket: 8, window: 250 * time.Millisecond, bf: 4, trees: 2,
		tenants: []tenant{
			{name: latName, op: "max", args: []string{"1"}},
			sumTenant("mass"),
			{name: "distinct", op: "distinct", args: []string{"256"}},
			{name: "bloom", op: "bloom", args: []string{"1024", "3"}},
			{name: "topk", op: "topk", args: []string{"10", "0"}},
			{name: "entropy", op: "entropy"},
		},
		tickEvery: 10 * time.Millisecond, perTick: 2, zipfKeys: true,
	},
	{
		name: "churn-lossy",
		why:  "fanin-wan under 3% datagram loss, 20% fail-stop and staggered recovery of half: liveness, routing stages 2-4, reconciliation and NACK repair work here and idle elsewhere",
		udp:  true, peers: 64, peersPerSocket: 8, window: 250 * time.Millisecond, bf: 4, trees: 2,
		tenants: []tenant{
			{name: latName, op: "max", args: []string{"1"}},
			sumTenant("mass"), sumTenant("sum1"), sumTenant("sum2"),
		},
		tickEvery: 10 * time.Millisecond, perTick: 2, churn: true,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Churn schedule constants (churn-lossy; see churnSchedule), the default
// span, and the closed loop's shape.
const (
	churnLoss       = 0.03
	churnKillFrac   = 0.20
	churnStaggerMs  = 100
	batchTuples     = 64 // closed-loop batch size
	barrierEvery    = 32 // closed-loop batches between drain barriers
	latEveryBatches = 256
)

// runSeconds is BENCHMARK.json's run_seconds; -seconds defaults to it. A
// run measures three federations for a third of it each (churn-lossy two,
// for half).
const runSeconds = 12

// endToEnd is the benchmark's user-visible metric set, in print order. The
// bounds are shares of the parent's median (see BENCHMARK.json). A bound
// holds on every workload, so each is about three times the widest
// run-to-run spread any workload showed (bench/README.md), and at most 0.25:
// ingest-sat sets latency, ingest rate and resident set, churn-lossy
// completeness, mass and wire bytes, where the lossless workloads are
// guarded by their output checks' floors instead. CPU is a per-layer row:
// at a tenth of a core it spread 25% between runs on this box.
var endToEnd = []measure.MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "result_latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "result_age_ms_p50", Unit: "ms", Better: "lower", Bound: 0.12},
	{Name: "completeness_ratio", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "mass_delivered_ratio", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "windows_delivered_ratio", Unit: "ratio", Better: "higher", Bound: 0.10},
	{Name: "ingest_tuples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wire_bytes_per_peer_window", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's metric set, `layer.metric`, in print order.
// bench/README.md says which end-to-end metric each row should move.
var perLayer = []measure.MetricSpec{
	{Name: "workload.gen_late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "workload.gen_late_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "workload.gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "workload.offered_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.inject_call_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "actor.mailbox_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "actor.mailbox_wait_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mortar.ingest_tuples", Unit: "count", Better: "higher"},
	{Name: "mortar.ingest_batches", Unit: "count", Better: "lower"},
	{Name: "mortar.batch_factor", Unit: "ratio", Better: "higher"},
	{Name: "result_latency_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "mortar.report_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mortar.report_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mortar.result_age_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mortar.result_hops_p50", Unit: "count", Better: "lower"},
	{Name: "mortar.late_at_root_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mortar.relayed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mortar.dropped", Unit: "count", Better: "lower"},
	{Name: "mortar.flexdown_hops", Unit: "count", Better: "lower"},
	{Name: "mortar.stage.staged", Unit: "count", Better: "lower"},
	{Name: "mortar.stage.coalesced", Unit: "count", Better: "higher"},
	{Name: "mortar.stage.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mortar.stage.batch_frames", Unit: "count", Better: "lower"},
	{Name: "mortar.stage.summaries_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "mortar.data_frames_per_window", Unit: "count", Better: "lower"},
	{Name: "mortar.data_bytes_per_window", Unit: "B", Better: "lower"},
	{Name: "mortar.ctl_bytes_per_peer_s", Unit: "B/s", Better: "lower"},
	{Name: "mortar.shared_ctl_share", Unit: "ratio", Better: "higher"},
	{Name: "tslist.inserts", Unit: "count", Better: "lower"},
	{Name: "tslist.merges", Unit: "count", Better: "higher"},
	{Name: "tslist.merge_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tslist.insert_merge_ns", Unit: "ns", Better: "lower"},
	{Name: "ops.window_merge_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "ops.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_summary_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_envelope_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_summary", Unit: "B", Better: "lower"},
	{Name: "netrt.echo_flight_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netrt.echo_flight_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "netrt.send_ns", Unit: "ns", Better: "lower"},
	{Name: "netrt.datagrams", Unit: "count", Better: "lower"},
	{Name: "netrt.frames_per_datagram", Unit: "ratio", Better: "higher"},
	{Name: "netrt.data_frames", Unit: "count", Better: "lower"},
	{Name: "netrt.ctl_frames", Unit: "count", Better: "lower"},
	{Name: "netrt.send_drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netrt.frag_streams", Unit: "count", Better: "lower"},
	{Name: "netrt.retransmits", Unit: "count", Better: "lower"},
	{Name: "netrt.nacks", Unit: "count", Better: "lower"},
	{Name: "netrt.reasm_evicted", Unit: "count", Better: "lower"},
	{Name: "netrt.rtt_error_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "livert.sent", Unit: "count", Better: "lower"},
	{Name: "livert.dropped", Unit: "count", Better: "lower"},
	{Name: "netrt.group_build_ms", Unit: "ms", Better: "lower"},
	{Name: "netrt.gossip_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.open_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.install_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.wired_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.first_window_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.fanout_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.fanout_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "gateway.stream_dropped", Unit: "count", Better: "lower"},
	{Name: "gateway.install_http_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "chaos.actions_applied", Unit: "count", Better: "higher"},
	{Name: "chaos.live_min", Unit: "count", Better: "higher"},
	{Name: "budget.timer_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.flight_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.hold_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.mailbox_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.gateway_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_cores_used", Unit: "cores", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.result_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}
