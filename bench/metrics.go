package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same definitions; a test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics an untraced run reports on every workload.
// Bound is the share by which a metric may worsen before a change
// counts as a regression: at least three times the largest quartile
// spread, as a share of the median, that ten seeds of any workload
// showed on the reference machine.
func endToEnd() []metricDef {
	return []metricDef{
		// Simulation workloads: mean over reps of routing.Run plus
		// Collector.Summarize. simd-mixed: median job latency.
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2},
		// Median of every timed set-up: Scenario.Materialize, or for
		// simd-mixed a service start plus its warm-up job.
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		// Mean over reps of the child process's peak resident set.
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
		// Mean over reps of heap bytes allocated by set-up and run.
		{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	}
}

// perLayer lists the metrics a traced run reports on every workload;
// a layer a workload does not exercise reports 0.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("s", "lower", "scenario.schedule_s", "scenario.workload_s")
	add("count", "lower", "scenario.contacts", "scenario.packets")
	add("s", "lower", "trace.cursor_s")
	add("count", "lower", "trace.occurrences", "packet.next_calls")
	add("s", "lower", "packet.next_s")
	add("count", "lower", "sim.events")
	add("1/s", "higher", "sim.events_per_s")
	add("s", "lower", "shard.w1_wall_s")
	add("ratio", "higher", "shard.speedup")
	names := methodNames()
	layers := []struct {
		name    string
		methods []int
	}{
		{"core", []int{mGenerate, mInventory, mDirectQueue, mPlan, mAccept, mReplicaDelay}},
		{"cgr", []int{mPrime, mGenerate, mDirectQueue, mPlan, mAccept, mOnDelivered}},
	}
	for _, l := range layers {
		for _, m := range l.methods {
			add("s", "lower", l.name+"."+names[m]+"_s")
			add("count", "lower", l.name+"."+names[m]+"_calls")
		}
		add("count", "lower", l.name+".plan_candidates")
		if l.name == "core" {
			add("count", "lower", "core.inventory_items")
			add("ratio", "higher", "core.plan_yield")
			add("count", "lower", "core.accept_rejects")
		}
	}
	add("s", "lower", "routing.other_s")
	add("count", "lower", "routing.meetings")
	add("MB", "lower", "routing.opportunity_mb", "routing.data_mb", "routing.meta_mb")
	add("ratio", "lower", "routing.meta_share")
	add("count", "lower", "routing.replications")
	add("count", "higher", "routing.direct_deliveries")
	add("count", "lower", "disrupt.lost_transfers", "disrupt.failed_contacts")
	add("s", "lower", "metrics.summarize_s")
	add("fraction", "higher", "metrics.delivery_rate")
	add("s", "lower", "metrics.delay_all_s")
	add("count", "lower", "runtime.gc_cycles")
	add("s", "lower", "runtime.gc_cpu_s")
	add("count", "higher", "exp.cache_hits")
	add("count", "lower", "exp.cache_misses")
	add("ratio", "higher", "exp.hit_ratio")
	add("s", "lower", "service.submit_s", "service.run_s", "service.queue_wait_s", "service.job_p90_s")
	add("count", "higher", "service.jobs")
	add("count", "lower", "service.events", "service.rejected")
	add("s", "lower", "service.gen_lag_s")
	add("ratio", "lower", "trace_overhead")
	return out
}
