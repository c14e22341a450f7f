package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (perfbench_test.go keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves and On name the end-to-end metric and workload a per-layer
	// metric should move, so later changes can cite the pairing.
	Moves, On string
}

// endToEnd are the user-visible metrics of the untraced run. Every
// workload reports every one; "op" is the workload's unit of work:
//
//	paper:  one regeneration of every table and figure (paper_s)
//	design: one flow of the 32-register core, stage by stage (flow_*)
//	serve:  one HTTP request to the daemon (req_*)
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_s", Unit: "s", Better: "lower"},
	{Name: "op_tail_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mc_samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// e2eAlias names each workload's end-to-end metrics the way the report
// prints them next to the generic names.
var e2eAlias = map[string]map[string]string{
	"paper":  {"op_p50_s": "paper_s", "op_tail_s": "paper_slowest_pass_s", "ops_per_s": "paper_passes_per_s"},
	"design": {"op_p50_s": "flow_p50_s", "op_tail_s": "flow_tail_s", "ops_per_s": "flows_per_s"},
	"serve":  {"op_p50_s": "req_p50_s", "op_tail_s": "req_tail_s", "ops_per_s": "req_per_s"},
}

// stageNames are the core pipeline stages in execution order.
var stageNames = []string{
	"synth", "floorplan", "powerplan", "place", "cts", "partition",
	"route", "def", "extract", "sta", "power",
}

// perLayer are the traced run's metrics. A workload that never calls a
// layer reports 0 for it.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves, on string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves, On: on})
	}
	for _, s := range stageNames {
		moves := "op_p50_s"
		if s == "route" {
			moves = "op_tail_s"
		}
		add(s+".busy_s", "s", "lower", moves, "design")
	}
	for _, c := range []string{"place.cells", "cts.buffers", "route.nets", "route.overflow_edges",
		"sta.cells_timed", "sta.endpoints_timed", "flow.invalid"} {
		add(c, "count", "lower", "op_p50_s", "design")
	}
	add("variation.build_s", "s", "lower", "mc_samples_per_s", "design")
	add("variation.run_s", "s", "lower", "mc_samples_per_s", "design")
	add("variation.samples", "count", "higher", "mc_samples_per_s", "design")
	add("variation.candidates", "count", "lower", "mc_samples_per_s", "design")
	for _, id := range []string{"fig08a", "fig08c", "fig09", "fig10", "fig11", "table3", "fig12", "mc", "static"} {
		add("exp."+id+"_s", "s", "lower", "op_p50_s", "paper")
	}
	add("exp.points", "count", "lower", "op_p50_s", "paper")
	add("exp.memo_hit_ratio", "ratio", "higher", "op_p50_s", "paper")
	add("exp.synth_root_hit_ratio", "ratio", "higher", "op_p50_s", "paper")
	add("exp.diff_forks", "count", "higher", "op_p50_s", "paper")
	add("exp.diff_fallbacks", "count", "lower", "op_p50_s", "paper")
	add("exp.full_synth_forks", "count", "lower", "op_p50_s", "paper")
	add("serve.admit_wait_s", "s", "lower", "op_tail_s", "serve")
	add("serve.checkpoint_s", "s", "lower", "op_p50_s", "serve")
	add("serve.leaf_s", "s", "lower", "op_p50_s", "serve")
	for _, s := range stageNames {
		add("serve.stage."+s+"_s", "s", "lower", "op_p50_s", "serve")
	}
	add("serve.study_s", "s", "lower", "mc_samples_per_s", "serve")
	add("serve.io_s", "s", "lower", "op_p50_s", "serve")
	add("serve.ckpt_hit_ratio", "ratio", "higher", "op_p50_s", "serve")
	add("serve.ckpt_coalesced", "count", "higher", "op_p50_s", "serve")
	add("serve.ckpt_evictions", "count", "lower", "peak_rss_mb", "serve")
	add("serve.ckpt_resident_mb", "MB", "lower", "peak_rss_mb", "serve")
	add("serve.memo_hit_ratio", "ratio", "higher", "op_p50_s", "serve")
	add("serve.diff_forks", "count", "higher", "op_tail_s", "serve")
	add("serve.diff_fallbacks", "count", "lower", "op_tail_s", "serve")
	add("serve.diff_hit_ratio", "ratio", "higher", "op_tail_s", "serve")
	add("serve.rejected", "count", "lower", "fail_ratio", "serve")
	add("go.alloc_mb", "MB", "lower", "op_p50_s", "all")
	add("go.gc_cycles", "count", "lower", "op_p50_s", "all")
	add("go.gc_pause_s", "s", "lower", "op_tail_s", "all")
	add("go.heap_peak_mb", "MB", "lower", "peak_rss_mb", "all")
	return out
}()
