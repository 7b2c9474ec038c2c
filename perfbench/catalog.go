package main

// metricDef describes one metric the benchmark prints. The end-to-end
// catalog and the per-layer catalog are mirrored in BENCHMARK.json; a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; the traced run prints it next to the value.
	Moves string
}

// endToEnd lists what a user of a campaign sees. Every untraced run
// prints all of them.
var endToEnd = []metricDef{
	{Name: "variants_per_s", Unit: "variants/s", Better: "higher", Bound: 0.25},
	{Name: "variants_per_s_1w", Unit: "variants/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "task_success_ratio", Unit: "share", Better: "higher", Bound: 0.01},
	{Name: "coverage_full_variants", Unit: "variants", Better: "lower", Bound: 0.15},
}

const (
	movesSetup    = "setup_s on testsuite; no change on releases, regions-fabric"
	movesRefvm    = "variants_per_s on releases; less on testsuite; none on regions-fabric"
	movesMinicc   = "variants_per_s on regions-fabric and testsuite; less on releases"
	movesShards   = "variants_per_s on regions-fabric only"
	movesFabric   = "variants_per_s and task_success_ratio on regions-fabric only"
	movesRuntime  = "peak_rss_mb on every workload; variants_per_s at nproc workers"
	movesTrace    = "none: quality of the trace itself"
	movesInstance = "variants_per_s on every workload (at most a few % of worker time)"
)

// perLayer lists the traced run's split. Each layer is the internal/
// package whose public function the benchmark times.
var perLayer = []metricDef{
	{Name: "cc.front_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "skeleton.build_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "spe.count_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "spe.space_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "spe.pool_misses", Unit: "count", Better: "lower", Moves: "variants_per_s on testsuite"},
	{Name: "spe.pool_get_ms", Unit: "ms", Better: "lower", Moves: "variants_per_s on testsuite"},
	{Name: "spe.instantiate_ns_per_variant", Unit: "ns", Better: "lower", Moves: movesInstance},
	{Name: "refvm.ns_per_variant", Unit: "ns", Better: "lower", Moves: movesRefvm},
	{Name: "refvm.limit_share", Unit: "share", Better: "lower", Moves: "input property: " + movesRefvm},
	{Name: "refvm.limit_time_share", Unit: "share", Better: "lower", Moves: movesRefvm},
	{Name: "refvm.steps_per_variant", Unit: "steps", Better: "lower", Moves: movesRefvm},
	{Name: "minicc.ns_per_exec.O0", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.ns_per_exec.O1", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.ns_per_exec.O2", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.ns_per_exec.O3", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.lower_ns", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.passes_ns_per_exec.O1", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.passes_ns_per_exec.O2", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.passes_ns_per_exec.O3", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.vm_ns_per_exec.O0", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.vm_ns_per_exec.O1", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.vm_ns_per_exec.O2", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.vm_ns_per_exec.O3", Unit: "ns", Better: "lower", Moves: movesMinicc},
	{Name: "minicc.crash_share", Unit: "share", Better: "lower", Moves: "input property: " + movesMinicc},
	{Name: "campaign.classify_ns_per_variant", Unit: "ns", Better: "lower", Moves: "variants_per_s on releases"},
	{Name: "campaign.shard_ms_p50", Unit: "ms", Better: "lower", Moves: movesShards},
	{Name: "campaign.shard_ms_p99", Unit: "ms", Better: "lower", Moves: movesShards},
	{Name: "campaign.dispatch_us", Unit: "us", Better: "lower", Moves: movesShards},
	{Name: "campaign.merge_us", Unit: "us", Better: "lower", Moves: movesShards},
	{Name: "campaign.checkpoint_ms", Unit: "ms", Better: "lower", Moves: movesShards},
	{Name: "campaign.checkpoint_kb", Unit: "KB", Better: "lower", Moves: movesShards},
	{Name: "campaign.slot_idle_share", Unit: "share", Better: "lower", Moves: "gap between variants_per_s and variants_per_s_1w on testsuite"},
	{Name: "campaign.setup_share", Unit: "share", Better: "lower", Moves: "input property: setup_s on testsuite"},
	{Name: "fabric.lease_rtt_us", Unit: "us", Better: "lower", Moves: movesFabric},
	{Name: "fabric.result_rtt_us", Unit: "us", Better: "lower", Moves: movesFabric},
	{Name: "fabric.grants_per_lease", Unit: "grants", Better: "higher", Moves: movesFabric},
	{Name: "fabric.wait_replies", Unit: "count", Better: "lower", Moves: movesFabric},
	{Name: "fabric.result_kb", Unit: "KB", Better: "lower", Moves: movesFabric},
	{Name: "fabric.re_leases", Unit: "count", Better: "lower", Moves: movesFabric},
	{Name: "runtime.alloc_kb_per_variant", Unit: "KB", Better: "lower", Moves: movesRuntime},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Moves: movesRuntime},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower", Moves: movesTrace},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: movesTrace},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values, so the printed names
// and units come from the catalog alone. A metric the run could not
// measure prints as 0.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
