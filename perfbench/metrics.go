package main

// spec names one reported metric and its unit. endToEnd and perLayer are the
// lists BENCHMARK.json declares; a run reports every metric of its list, and
// a layer that is not on a workload's path reads 0.
type spec struct {
	name, unit string
}

// endToEnd is what an untraced run reports.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"cpu_us_per_txn", "us"},
	{"allocs_per_txn", "count"},
	{"peak_heap_mb", "MiB"},
}

// codecTypes are the wire message types the tcp workloads exchange, each
// with its own codec rows in the traced run.
var codecTypes = []string{
	"ReadReq", "ReadResp", "WriteReq", "WriteResp",
	"CommitSubReq", "CommitTopReq", "AbortReq", "ReleaseReq", "Ack",
}

// perLayer is what a traced run reports.
var perLayer = func() []spec {
	l := []spec{
		{"txn_samples", "count"},
		{"failed_ratio", "ratio"},

		{"cluster.read_us_p50", "us"},
		{"cluster.read_us_p99", "us"},
		{"cluster.write_us_p50", "us"},
		{"cluster.sub_us_p50", "us"},
		{"cluster.commit_us_p50", "us"},
		{"cluster.commit_us_p99", "us"},
		{"cluster.restarts_per_txn", "count"},
		{"cluster.busy_retries_per_txn", "count"},
		{"cluster.hedges_per_txn", "count"},
		{"cluster.useful_ratio", "ratio"},

		{"dm.service_us_p50", "us"},
		{"dm.service_us_p99", "us"},
		{"dm.requests_per_txn", "count"},
		{"dm.restart_ms", "ms"},

		{"tcp.calls_per_txn", "count"},
		{"tcp.notifies_per_txn", "count"},
		{"tcp.call_us_p50", "us"},
		{"tcp.call_us_p99", "us"},
		{"tcp.overhead_us_per_call", "us"},
		{"tcp.errors_per_txn", "count"},
		{"tcp.hop_us_p50", "us"},

		{"codec.bytes_per_msg", "B"},
		{"codec.bytes_per_txn", "B"},
		{"codec.encode_us_per_msg", "us"},
		{"codec.decode_us_per_msg", "us"},
		{"codec.allocs_per_msg", "count"},
	}
	for _, t := range codecTypes {
		l = append(l,
			spec{"codec.encode_us." + t, "us"},
			spec{"codec.decode_us." + t, "us"},
			spec{"codec.bytes." + t, "B"},
			spec{"codec.allocs." + t, "count"},
		)
	}
	return append(l,
		spec{"wal.bytes_per_txn", "B"},
		spec{"wal.writes_per_txn", "count"},
		spec{"wal.fsyncs_per_txn", "count"},
		spec{"wal.fsync_us_p50", "us"},
		spec{"wal.snapshots_per_ktxn", "count"},
		spec{"wal.replay_us_per_record", "us"},
		spec{"wal.append_us_p50", "us"},

		spec{"runtime.gc_cycles_per_ktxn", "count"},
		spec{"runtime.gc_cpu_fraction", "ratio"},

		spec{"trace.txn_per_s_delta_pct", "%"},
		spec{"trace.cpu_us_per_txn_delta_pct", "%"},
	)
}()

// chaos-sim, which BENCHMARK.json leaves out, reports these beside the
// shared lists: the campaign's wall time untraced, and the sim and chaos
// layers traced.
var (
	chaosEndToEnd = []spec{{"campaign_s", "s"}}
	chaosLayer    = []spec{
		{"sim.msgs_per_txn", "count"},
		{"sim.drop_ratio", "ratio"},
		{"sim.hop_overshoot_us_p50", "us"},
		{"chaos.cpu_wall_ratio", "ratio"},
		{"chaos.recoveries", "count"},
		{"chaos.rebuilds", "count"},
		{"chaos.reaps", "count"},
		{"chaos.replay_exact", "count"},
		{"trace.campaign_s_delta_pct", "%"},
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every metric of list from values, 0 where values has none.
func report(list []spec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, s := range list {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}
