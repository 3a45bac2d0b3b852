package main

// Metric names one per-layer metric. The list is the contract with
// BENCHMARK.json's per_layer section (a test compares the two): every traced
// pass prints every name, 0 where the workload never enters the layer.
type Metric struct {
	Name, Unit string
	// HigherBetter is the direction BENCHMARK.json records; per-layer
	// metrics carry no bound.
	HigherBetter bool
}

// Metrics lists the per-layer metrics, outside in: serving boundary, engine
// search loops, signature view and codec, partition tree, pager, heap and
// ranking primitives, the other engines, comparators, and the tracer's own
// cost.
var Metrics = []Metric{
	{Name: "boundary.noop_us", Unit: "us"},
	{Name: "boundary.noop_2c_us", Unit: "us"},
	{Name: "boundary.noop_trace_us", Unit: "us"},
	{Name: "boundary.noop_allocs", Unit: "count"},
	{Name: "guard.acquire_shared_ns", Unit: "ns"},
	{Name: "guard.acquire_shared_allocs", Unit: "count"},
	{Name: "admission.acquire_ns", Unit: "ns"},
	{Name: "obs.record_query_ns", Unit: "ns"},
	{Name: "obs.record_query_2c_ns", Unit: "ns"},

	{Name: "sigcube.tester_us", Unit: "us"},
	{Name: "sigcube.search_self_ms", Unit: "ms"},
	{Name: "sigcube.states_generated", Unit: "count"},
	{Name: "sigcube.states_examined", Unit: "count"},
	{Name: "sigcube.pruned", Unit: "count"},
	{Name: "sigcube.peak_heap", Unit: "count"},
	{Name: "sigcube.useful_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "sigcube.insert_ms", Unit: "ms"},
	{Name: "sigcube.delete_ms", Unit: "ms"},
	{Name: "sigcube.scan50_ms", Unit: "ms"},

	{Name: "signature.test_calls", Unit: "count"},
	{Name: "signature.test_busy_ms", Unit: "ms"},
	{Name: "signature.prune_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "signature.reads", Unit: "count"},
	{Name: "signature.bytes_appended_per_write", Unit: "B"},
	{Name: "bitvec.decode_ns", Unit: "ns"},
	{Name: "bitvec.decode_allocs", Unit: "count"},
	{Name: "bitvec.encode_ns", Unit: "ns"},

	{Name: "hindex.node_calls", Unit: "count"},
	{Name: "hindex.busy_ms", Unit: "ms"},
	{Name: "rtree.reads", Unit: "count"},
	{Name: "rtree.children_ns", Unit: "ns"},
	{Name: "rtree.children_allocs", Unit: "count"},
	{Name: "rtree.leafentries_ns", Unit: "ns"},
	{Name: "btree.reads", Unit: "count"},

	{Name: "pager.read_ns", Unit: "ns"},
	{Name: "pager.read_2c_ns", Unit: "ns"},
	{Name: "pager.touch_ns", Unit: "ns"},
	{Name: "pager.buffer_hit_ns", Unit: "ns"},
	{Name: "pager.retries", Unit: "count"},

	{Name: "heap.push_pop_ns", Unit: "ns"},
	{Name: "ranking.busy_ms", Unit: "ms"},
	{Name: "ranking.lowerbound_ns.linear", Unit: "ns"},
	{Name: "ranking.lowerbound_ns.distance", Unit: "ns"},
	{Name: "ranking.lowerbound_ns.general", Unit: "ns"},
	{Name: "ranking.eval_ns.linear", Unit: "ns"},
	{Name: "ranking.eval_ns.distance", Unit: "ns"},
	{Name: "ranking.eval_ns.general", Unit: "ns"},

	{Name: "gridcube.engine_us", Unit: "us"},
	{Name: "gridcube.pseudoblock_us", Unit: "us"},
	{Name: "gridcube.cube_reads", Unit: "count"},
	{Name: "gridcube.blocktab_reads", Unit: "count"},
	{Name: "gridcube.table_reads", Unit: "count"},

	{Name: "skyline.query_ms", Unit: "ms"},
	{Name: "skyline.drilldown_ms", Unit: "ms"},
	{Name: "skyline.rollup_ms", Unit: "ms"},
	{Name: "skyline.domination_pruned", Unit: "count", HigherBetter: true},
	{Name: "joinquery.join_ms", Unit: "ms"},
	{Name: "joinquery.reads", Unit: "count"},
	{Name: "indexmerge.merge_ms", Unit: "ms"},
	{Name: "indexmerge.states_generated", Unit: "count"},

	{Name: "baselines.scan_reads", Unit: "count"},
	{Name: "baselines.boolean_first_reads", Unit: "count"},
	{Name: "baselines.ranking_first_reads", Unit: "count"},
	{Name: "baselines.boolean_first_ms", Unit: "ms"},

	{Name: "trace.overhead_pct", Unit: "%"},
}
