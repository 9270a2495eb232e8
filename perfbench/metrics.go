package main

// metric is one named number the benchmark reports. The end-to-end set is
// printed by every untraced run and the per-layer set by every traced run;
// BENCHMARK.json at the repository root lists the same names, units and
// directions (a test keeps the two in step).
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd metrics apply to every workload; each workload defines its own
// timed cells (see the workload files) and the metrics aggregate over them.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"cycles_per_s", "cycles/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// perLayer metrics come from the traced run. A layer a workload does not
// exercise reads 0 there: it did no work.
var perLayer = []metric{
	// simulate: engine throughput per design and its geometric mean.
	{"cuttlesim.rv32i.cps", "cycles/s", "higher", 0},
	{"cuttlesim.msi.cps", "cycles/s", "higher", 0},
	{"cuttlesim.fft.cps", "cycles/s", "higher", 0},
	{"rtlsim.rv32i.cps", "cycles/s", "higher", 0},
	{"rtlsim.msi.cps", "cycles/s", "higher", 0},
	{"rtlsim.fft.cps", "cycles/s", "higher", 0},
	{"native.rv32i.cps", "cycles/s", "higher", 0},
	{"native.msi.cps", "cycles/s", "higher", 0},
	{"native.fft.cps", "cycles/s", "higher", 0},
	{"cuttlesim.geomean_cps", "cycles/s", "higher", 0},
	{"rtlsim.geomean_cps", "cycles/s", "higher", 0},
	{"native.geomean_cps", "cycles/s", "higher", 0},
	{"cuttlesim.cycle_us", "us", "lower", 0},
	{"cuttlesim.commits", "count", "higher", 0},
	{"cuttlesim.attempts", "count", "lower", 0},
	{"cuttlesim.commit_ratio", "ratio", "higher", 0},
	{"netopt.nets_before", "count", "lower", 0},
	{"netopt.nets_after", "count", "lower", 0},
	// simulate: set-up phases (sum over the three designs).
	{"lang.build_ms", "ms", "lower", 0},
	{"cuttlesim.compile_ms", "ms", "lower", 0},
	{"circuit.compile_ms", "ms", "lower", 0},
	{"netopt.ms", "ms", "lower", 0},
	{"rtlsim.build_ms", "ms", "lower", 0},
	{"native.build_warm_ms", "ms", "lower", 0},
	{"native.spawn_ms", "ms", "lower", 0},
	{"native.compile_cold_s", "s", "lower", 0},
	{"native.compiles", "count", "lower", 0},
	{"native.cache_hits", "count", "higher", 0},
	// debug: the three stepping modes and the query set.
	{"debug.break_cps", "cycles/s", "higher", 0},
	{"debug.record_cps", "cycles/s", "higher", 0},
	{"debug.native_cps", "cycles/s", "higher", 0},
	{"debug.query_s", "s", "lower", 0},
	{"debug.hits", "count", "higher", 0},
	{"debug.cond_eval_us", "us", "lower", 0},
	{"sim.run1_us", "us", "lower", 0},
	{"server.debug_overhead_us_per_cycle", "us", "lower", 0},
	{"tracedb.append_us", "us", "lower", 0},
	{"tracedb.chunk_write_ms", "ms", "lower", 0},
	{"tracedb.chunks_written", "count", "lower", 0},
	{"tracedb.query_ms", "ms", "lower", 0},
	{"tracedb.chunks_scanned", "count", "lower", 0},
	{"tracedb.chunks_skipped", "count", "higher", 0},
	{"tracedb.rows_evaluated", "count", "lower", 0},
	{"tracedb.prune_ratio", "ratio", "higher", 0},
	{"native.cycle_rtt_us", "us", "lower", 0},
	{"native.peek_all_us", "us", "lower", 0},
	// serve: client-observed latency and the per-layer split of one step.
	{"serve.step_p50_ms", "ms", "lower", 0},
	{"serve.step_p90_ms", "ms", "lower", 0},
	{"serve.step_p99_ms", "ms", "lower", 0},
	{"serve.requests_per_s", "req/s", "higher", 0},
	{"serve.routed_step_us", "us", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"http.loopback_us", "us", "lower", 0},
	{"kclient.json_us", "us", "lower", 0},
	{"server.handler_us", "us", "lower", 0},
	{"cuttlesim.step64_us", "us", "lower", 0},
	{"server.checkpoint_ms", "ms", "lower", 0},
	{"server.fork_ms", "ms", "lower", 0},
	{"server.checkpoints", "count", "lower", 0},
	{"server.forks", "count", "lower", 0},
	{"server.lazy_forks", "count", "lower", 0},
	{"server.shed", "count", "lower", 0},
	// every workload: the Go runtime and the tracing itself.
	{"gc.pause_ms", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
