package main

// metricDef is one metric of the benchmark's contract. BENCHMARK.json
// repeats name, unit, direction and bound; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. The driver needs
// every one on every workload, so each has one definition per workload
// (README, "End-to-end metrics").
var endToEnd = []metricDef{
	{"useful_gpts_per_s", "GPts/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.1},
}

// perLayer are metrics of single layers, prefixed with the package they
// measure. A layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"native.kernel_ns_per_point", "ns", "lower", 0},
	{"bytecode.kernel_ns_per_point", "ns", "lower", 0},
	{"native.flops_per_point", "count", "lower", 0},
	{"native.instrs_per_point", "count", "lower", 0},
	{"bytecode.instrs_per_point", "count", "lower", 0},
	{"native.bytes_per_point_computed", "B", "lower", 0},
	{"host.triad_gbps", "GB/s", "higher", 0},
	{"native.bw_frac_of_triad", "ratio", "higher", 0},

	{"core.compute_frac", "ratio", "higher", 0},
	{"core.halo_frac", "ratio", "lower", 0},
	{"core.unaccounted_frac", "ratio", "lower", 0},
	{"core.step_ms_p50", "ms", "lower", 0},
	{"core.step_ms_min", "ms", "lower", 0},
	{"core.step_ms_tail", "ms", "lower", 0},
	{"core.step_tail_pct", "%", "higher", 0},
	{"core.windows", "count", "higher", 0},
	{"core.dmp_eff", "ratio", "higher", 0},

	{"propagators.build_ms", "ms", "lower", 0},
	{"field.alloc_ms", "ms", "lower", 0},
	{"core.new_operator_ms", "ms", "lower", 0},
	{"core.first_apply_ms", "ms", "lower", 0},
	{"symbolic.expand_ms", "ms", "lower", 0},
	{"ir.lower_ms", "ms", "lower", 0},
	{"ir.schedule_ms", "ms", "lower", 0},
	{"iet.build_ms", "ms", "lower", 0},
	{"bytecode.compile_ms", "ms", "lower", 0},
	{"native.compile_ms", "ms", "lower", 0},
	{"codegen.emit_ms", "ms", "lower", 0},
	{"core.construct_cover_frac", "ratio", "higher", 0},
	{"ir.clusters", "count", "lower", 0},
	{"ir.halo_reqs", "count", "lower", 0},
	{"iet.nodes", "count", "lower", 0},
	{"codegen.bytes", "B", "lower", 0},

	{"halo.exchange_us", "us", "lower", 0},
	{"halo.msgs_per_step", "count", "lower", 0},
	{"halo.bytes_per_step", "B", "lower", 0},
	{"halo.model_msgs_per_step", "count", "lower", 0},
	{"halo.shell_points_per_step", "count", "lower", 0},
	{"halo.shell_overhead_frac", "ratio", "lower", 0},
	{"halo.pack_ns_per_step", "ns", "lower", 0},
	{"halo.unpack_ns_per_step", "ns", "lower", 0},
	{"halo.wait_ns_per_step", "ns", "lower", 0},
	{"mpi.pingpong_us", "us", "lower", 0},
	{"mpi.allreduce_us", "us", "lower", 0},

	{"runtime.pool_sync_us", "us", "lower", 0},
	{"runtime.pool_sync_ns_per_step", "ns", "lower", 0},
	{"runtime.pool_idle_ns_per_step", "ns", "lower", 0},
	{"runtime.steals", "count", "lower", 0},
	{"runtime.pool2_speedup", "ratio", "higher", 0},

	{"sparse.inject_us", "us", "lower", 0},
	{"sparse.interpolate_us", "us", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.restore_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"checkpoint.recomputed_steps", "count", "lower", 0},
	{"propagators.forward_frac", "ratio", "higher", 0},
	{"propagators.adjoint_frac", "ratio", "higher", 0},
	{"propagators.shots_per_s", "1/s", "higher", 0},
	{"opcache.hits", "count", "higher", 0},
	{"opcache.misses", "count", "lower", 0},
	{"opcache.hit_rate", "ratio", "higher", 0},
	{"shotsched.shot_ms_p50", "ms", "lower", 0},
	{"shotsched.shot_ms_tail", "ms", "lower", 0},
	{"shotsched.first_shot_ms", "ms", "lower", 0},
	{"shotsched.busy_frac", "ratio", "higher", 0},

	{"perfmodel.predict_err", "ratio", "lower", 0},
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"obs.spans_per_rep", "count", "lower", 0},
}

// workloadWhy is each workload's one-line reason, as BENCHMARK.json
// states it.
var workloadWhy = map[string]string{
	"stream-2048":    "acoustic so-8 on 2048x2048, serial, native engine: an 80 MiB working set streams past the private caches, so the kernel and tile driver do all the work and halo/mpi do none",
	"strong-2rank":   "acoustic so-8 on 256x256 over 2 in-process ranks, diag mode, k=1: the strong-scaling limit where per-step synchronous halo exchange is a third of the wall and the kernel is cache-resident",
	"deep-2rank":     "same problem and ranks under full mode with time tile 4: the same halo/mpi layers used asynchronously with deep exchanges and redundant shell recompute, counted on useful points only",
	"survey-8shot":   "RunShots on 8 shots, so-16, 128x128, 2 shot workers, every other knob at its default: the zero-knob user path through the bytecode engine, adjoint, checkpoint, sparse, shotsched and opcache",
	"construct-cold": "cold Build+NewOperator of all four propagators at so 8 and 16 in a 2-rank full-mode world, never stepped: the compiler half (symbolic, ir, iet, bytecode, native, codegen) no stepping workload can see",
}
