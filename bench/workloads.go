package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"time"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/opcache"
	"devigo/internal/perfmodel"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
)

// sizes holds every input size of the five workloads. The full set is
// the benchmark; the quick set is the same code at toy size for the
// smoke test.
type sizes struct {
	streamN, streamNT, streamW int // stream-2048
	rankN, rankNT, rankW       int // strong-2rank, deep-2rank
	crossN, crossNT            int // start-up cross-engine reduction
	surveyN, surveySO          int
	surveyNT, surveyShots      int
	surveyRec                  int
	constructN                 int
	constructSOs               []int
	triadBytes                 int // per array
	layerSetups                int // cold set-ups the per-layer run times call by call
	probeIters                 int
	oneRep                     bool // ignore -seconds, run each phase once
}

var fullSizes = sizes{
	streamN: 2048, streamNT: 100, streamW: 5,
	// W is 20, not the 100 the issue asked for: when a neighbour takes
	// slices of a CPU, the fastest 100-step (34 ms) window of a rep sat
	// 8-20 % above the quiet floor, the fastest 20-step (7 ms) one 3-5 %.
	rankN: 256, rankNT: 2000, rankW: 20,
	crossN: 128, crossNT: 40,
	surveyN: 128, surveySO: 16, surveyNT: 96, surveyShots: 8, surveyRec: 8,
	constructN: 64, constructSOs: []int{8, 16},
	triadBytes:  64 << 20,
	layerSetups: 3, probeIters: 200,
}

var quickSizes = sizes{
	streamN: 64, streamNT: 20, streamW: 5,
	rankN: 64, rankNT: 40, rankW: 20,
	crossN: 32, crossNT: 8,
	surveyN: 32, surveySO: 8, surveyNT: 12, surveyShots: 2, surveyRec: 4,
	constructN: 32, constructSOs: []int{8},
	triadBytes:  1 << 20,
	layerSetups: 1, probeIters: 5,
	oneRep: true,
}

// runCtx carries one workload run: its inputs, and the checks and
// metrics it accumulates.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string
	gold     *goldenFile
	log      io.Writer

	rng    *rand.Rand
	jitter [2]int
	tr     *tracer // bench-side spans; nil unless trace

	attempted, failed int
	failures          []string
	out               metrics
	configs           map[string]core.EffectiveConfig
}

// check counts one output check; a non-empty msg is a failure.
func (rc *runCtx) check(msg string) {
	rc.attempted++
	if msg != "" {
		rc.failed++
		rc.failures = append(rc.failures, msg)
		fmt.Fprintln(rc.log, "CHECK FAILED:", msg)
	}
}

// settle returns freed memory to the OS between reps, outside any timed
// region, so one rep's garbage is never collected inside the next.
func settle() {
	goruntime.GC()
	debug.FreeOSMemory()
}

// stem names this run's files under the output directory.
func (rc *runCtx) stem() string { return fmt.Sprintf("%s-seed%d", rc.workload, rc.seed) }

// more reports whether a timed phase runs another rep: always a first
// one, then until its share of -seconds is spent (quick mode stops at one).
func (rc *runCtx) more(rep int, timed, share float64) bool {
	return rep == 0 || (!rc.sz.oneRep && timed < rc.seconds*share)
}

// The workloads, in catalogue order. Each `why` is repeated in
// BENCHMARK.json and the README.
type workload struct {
	name string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"stream-2048", func(rc *runCtx) error { return rc.stepping(streamSpec(rc)) }},
	{"strong-2rank", func(rc *runCtx) error { return rc.stepping(strongSpec(rc)) }},
	{"deep-2rank", func(rc *runCtx) error { return rc.stepping(deepSpec(rc)) }},
	{"survey-8shot", (*runCtx).survey},
	{"construct-cold", (*runCtx).construct},
}

// steppingSpec is a stepping workload: the measured problem, and the
// problem whose adjacent reps it is compared with in the per-layer run.
type steppingSpec struct {
	main, pair stepProblem
	pairFirst  bool
	// pairMetric is the per-layer ratio taken between adjacent reps:
	// main/pair step time (or pair/main when pairOverMain), times scale.
	pairMetric   string
	pairOverMain bool
	scale        float64
}

func streamSpec(rc *runCtx) steppingSpec {
	p := stepProblem{n: rc.sz.streamN, so: 8, nbl: 8, nt: rc.sz.streamNT, w: rc.sz.streamW,
		ranks: 1, mode: halo.ModeNone, k: 1, engine: core.EngineNative, workers: 1, jitter: rc.jitter}
	two := p
	two.workers = 2
	return steppingSpec{main: p, pair: two, pairMetric: "runtime.pool2_speedup", scale: 1}
}

func rankSpec(rc *runCtx, mode halo.Mode, k int) steppingSpec {
	p := stepProblem{n: rc.sz.rankN, so: 8, nbl: 8, nt: rc.sz.rankNT, w: rc.sz.rankW,
		ranks: 2, mode: mode, k: k, engine: core.EngineNative, workers: 1, jitter: rc.jitter}
	serial := p
	serial.ranks, serial.mode, serial.k = 1, halo.ModeNone, 1
	// Parallel efficiency: serial step time / (2 x 2-rank step time).
	return steppingSpec{main: p, pair: serial, pairFirst: true,
		pairMetric: "core.dmp_eff", pairOverMain: true, scale: 0.5}
}

func strongSpec(rc *runCtx) steppingSpec { return rankSpec(rc, halo.ModeDiagonal, 1) }
func deepSpec(rc *runCtx) steppingSpec   { return rankSpec(rc, halo.ModeFull, 4) }

// crossEngine is the start-up check: on a small reduction of the
// workload's problem, native, bytecode and the interpreter (the
// independent reference) must agree bit for bit, and with golden.
func (rc *runCtx) crossEngine(p stepProblem) error {
	p.n, p.nt, p.w, p.workers = rc.sz.crossN, rc.sz.crossNT, 0, 1
	msg := ""
	var ref stepGold
	for i, engine := range []string{core.EngineInterpreter, core.EngineBytecode, core.EngineNative} {
		p.engine = engine
		r, err := runRep(p, nil, 0)
		if err != nil {
			return err
		}
		if m := rc.gold.checkStep(p, r); m != "" && msg == "" {
			msg = m
		}
		if got := stepGoldOf(r); i == 0 {
			ref = got
		} else if got != ref && msg == "" {
			msg = fmt.Sprintf("%s: %s disagrees with the interpreter", stepKey(p), engine)
		}
	}
	rc.check(msg)
	return nil
}

// coldSetup is one cold construct of p: Build + NewOperator + a first
// one-step Apply (which spawns the lazy pool and binds the exchangers).
// It returns the rep and its wall seconds.
func (rc *runCtx) coldSetup(p stepProblem, rep int) (*repResult, float64, error) {
	p.nt, p.w = 1, 0
	settle()
	sp := rc.tr.begin("setup", -1, rep)
	t0 := time.Now()
	r, err := runRep(p, nil, rep)
	wall := time.Since(t0).Seconds()
	rc.tr.end(sp)
	return r, wall, err
}

// sampleRSS runs the timed phase of an end-to-end run with the resident
// set sampled alongside it.
func (rc *runCtx) sampleRSS(timed func() error) error {
	s := startRSSSampler()
	err := timed()
	rc.out["rss_mb"] = s.finish()
	return err
}

// stepSeconds is a rep's median steady step time.
func stepSeconds(r *repResult, w int) float64 { return median(r.windows(w)) / float64(w) }

func (rc *runCtx) stepping(spec steppingSpec) error {
	p := spec.main
	if err := rc.crossEngine(p); err != nil {
		return err
	}
	if rc.trace {
		return rc.steppingLayers(spec)
	}
	// One cold set-up before every rep, so the set-ups are spread over the
	// whole run like the windows are and a slow phase of the host cannot
	// cover them all.
	var wins, setup []float64
	err := rc.sampleRSS(func() error {
		for rep, timed := 0, 0.0; rc.more(rep, timed, 1); rep++ {
			_, s, err := rc.coldSetup(p, rep)
			if err != nil {
				return err
			}
			setup = append(setup, s)
			settle()
			r, err := runRep(p, nil, rep)
			if err != nil {
				return err
			}
			rc.check(rc.gold.checkStep(p, r))
			rc.configs[fmt.Sprintf("%s/%s", rc.workload, stepKey(p))] = r.cfg
			wins = append(wins, r.windows(p.w)...)
			timed += r.applyS
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(rc.log, "window of %d steps: %.4f ms fastest, %.4f ms median, %d windows\n",
		p.w, fastest(wins)*1e3, median(wins)*1e3, len(wins))
	// Global points only: a time-tiled rep also sweeps shell points, and
	// they are overhead, not throughput.
	rc.out["useful_gpts_per_s"] = float64(p.points()*p.w) / fastest(wins) / 1e9
	rc.out["setup_s"] = fastest(setup)
	return nil
}

// steppingLayers is the per-layer run of a stepping workload: probes of
// single layers, untraced adjacent rep pairs, then traced reps.
func (rc *runCtx) steppingLayers(spec steppingSpec) error {
	p, out := spec.main, rc.out
	steady := float64(steadySteps(p.nt, p.w))

	// Construction, timed call by call.
	var build, newOp, first []float64
	for i := 0; i < rc.sz.layerSetups; i++ {
		r, _, err := rc.coldSetup(p, i)
		if err != nil {
			return err
		}
		build, newOp, first = append(build, r.buildS), append(newOp, r.newOpS), append(first, r.applyS)
	}
	out["propagators.build_ms"] = median(build) * 1e3
	out["core.new_operator_ms"] = median(newOp) * 1e3
	out["core.first_apply_ms"] = median(first) * 1e3
	alloc, err := probeFieldAlloc(p.n, p.so, rc.tr)
	if err != nil {
		return err
	}
	out["field.alloc_ms"] = alloc * 1e3
	settle()

	// Kernels alone, on the serial global grid.
	sweeps := max(3, min(rc.sz.probeIters, 50_000_000/(p.points()*8)))
	ns, flops, instrs, streams, err := probeKernel(p.n, p.so, p.nbl, core.EngineNative, sweeps, rc.tr)
	if err != nil {
		return err
	}
	out["native.kernel_ns_per_point"] = ns
	out["native.flops_per_point"] = float64(flops)
	out["native.instrs_per_point"] = float64(instrs)
	out["native.bytes_per_point_computed"] = float64(4 * streams)
	settle()
	ns, _, instrs, _, err = probeKernel(p.n, p.so, p.nbl, core.EngineBytecode, max(3, sweeps/3), rc.tr)
	if err != nil {
		return err
	}
	out["bytecode.kernel_ns_per_point"] = ns
	out["bytecode.instrs_per_point"] = float64(instrs)
	settle()

	if p.ranks == 1 {
		// The out-of-cache workload gets its roofline position and the
		// worker pool's bare sync cost.
		out["host.triad_gbps"] = probeTriad(rc.sz.triadBytes, rc.tr)
		settle()
		pool := runtime.NewPool(2, 0)
		out["runtime.pool_sync_us"] = pool.SyncCost() * 1e6
		pool.Close()
	} else if err := probeComm(p, rc.sz.probeIters, rc.tr, out); err != nil {
		return err
	}

	// Sparse operators and the compiler stages, on one more construct.
	var stages stageTimes
	var stagesNewOp float64
	err = withWorld(p.ranks, func(c *mpi.Comm) error {
		sm, err := newStepModel(p, c, nil, -1, 0)
		if err != nil {
			return err
		}
		defer sm.op.Close()
		if c != nil && c.Rank() != 0 {
			return nil
		}
		probeSparse(sm, rc.sz.probeIters, rc.tr, out)
		stages, err = replayStages(sm.m, sm.op, p.mode, rc.tr, 0)
		stagesNewOp = sm.newOpS
		return err
	})
	if err != nil {
		return err
	}
	stages.into(out, stagesNewOp)

	// Untraced adjacent pairs: ratios are only taken between neighbours.
	var wins, mainStep, pairStep []float64
	var compute, haloS, wall float64
	var msgs, bytes, poolSync, poolIdle, steals float64
	var last *repResult
	mainReps, poolReps := 0, 0
	for rep, timed := 0, 0.0; rc.more(rep, timed, 0.5); rep += 2 {
		order := []stepProblem{p, spec.pair}
		if spec.pairFirst {
			order = []stepProblem{spec.pair, p}
		}
		for i, q := range order {
			settle()
			r, err := runRep(q, nil, rep+i)
			if err != nil {
				return err
			}
			rc.check(rc.gold.checkStep(q, r))
			rc.configs[fmt.Sprintf("%s/%s/w%d", rc.workload, stepKey(q), q.workers)] = r.cfg
			timed += r.applyS
			if q.workers > 1 {
				poolReps++
				poolSync += float64(r.pool.SyncNs)
				poolIdle += float64(r.pool.IdleNs)
				steals += float64(r.pool.Steals)
			}
			if q != p {
				pairStep = append(pairStep, stepSeconds(r, q.w))
				continue
			}
			mainReps++
			last = r
			mainStep = append(mainStep, stepSeconds(r, p.w))
			wins = append(wins, r.windows(p.w)...)
			compute += r.perf.ComputeSeconds
			haloS += r.perf.HaloSeconds
			wall += r.applyS
			msgs += float64(r.msgs)
			bytes += float64(r.bytes)
		}
	}
	ratios := pairRatios(mainStep, pairStep)
	if spec.pairOverMain {
		ratios = pairRatios(pairStep, mainStep)
	}
	out[spec.pairMetric] = median(ratios) * spec.scale
	step := median(wins) / float64(p.w)
	pct, tailV := tail(wins)
	out["core.step_ms_p50"] = step * 1e3
	out["core.step_ms_min"] = fastest(wins) / float64(p.w) * 1e3
	out["core.step_ms_tail"] = tailV / float64(p.w) * 1e3
	out["core.step_tail_pct"] = pct
	out["core.windows"] = float64(len(wins))
	out["core.compute_frac"] = compute / wall
	out["core.halo_frac"] = haloS / wall
	out["core.unaccounted_frac"] = 1 - (compute+haloS)/wall
	out["native.bw_frac_of_triad"] = 0
	if t := out["host.triad_gbps"]; t > 0 {
		out["native.bw_frac_of_triad"] = out["native.bytes_per_point_computed"] * float64(p.points()) / step / 1e9 / t
	}
	// Traffic per rank per step; the model is CommStats' own figure.
	out["halo.msgs_per_step"] = msgs / float64(mainReps) / steady / float64(p.ranks)
	out["halo.bytes_per_step"] = bytes / float64(mainReps) / steady / float64(p.ranks)
	out["halo.model_msgs_per_step"] = last.comm.MsgsPerStep
	if poolReps > 0 {
		out["runtime.pool_sync_ns_per_step"] = poolSync / float64(poolReps) / steady
		out["runtime.pool_idle_ns_per_step"] = poolIdle / float64(poolReps) / steady
		out["runtime.steals"] = steals / float64(poolReps)
	}
	predicted := perfmodel.DefaultHost().Predict(last.profile, perfmodel.ExecConfig{
		Mode: p.mode, Workers: last.cfg.Workers, TileRows: last.cfg.TileRows, TimeTile: last.cfg.TimeTile})
	out["perfmodel.predict_err"] = math.Abs(predicted-step) / step

	// Traced reps: the library's own recorder on, bench-side spans on.
	var tracedStep []float64
	var h obsHarvest
	tracedReps := 0
	for rep, timed := 0, 0.0; rc.more(rep, timed, 0.25); rep++ {
		settle()
		var r *repResult
		one, err := traced(func() (err error) {
			r, err = runRep(p, rc.tr, 1000+rep)
			return err
		})
		if err != nil {
			return err
		}
		rc.check(rc.gold.checkStep(p, r))
		timed += r.applyS
		tracedStep = append(tracedStep, stepSeconds(r, p.w))
		h.add(one)
		tracedReps++
	}
	if err := obs.WriteTraceFile(filepath.Join(rc.outDir, rc.stem()+".obs.trace.json")); err != nil {
		return err
	}
	obs.Reset()
	perRankStep := float64(tracedReps) * float64(p.nt) * float64(p.ranks)
	out["obs.spans_per_rep"] = float64(h.spans) / float64(tracedReps)
	out["obs.trace_overhead_frac"] = median(tracedStep)/step - 1
	out["halo.pack_ns_per_step"] = h.packNs / perRankStep
	out["halo.unpack_ns_per_step"] = h.unpackNs / perRankStep
	out["halo.wait_ns_per_step"] = h.waitNs / perRankStep
	out["halo.shell_points_per_step"] = float64(h.shellPoints) / float64(tracedReps) / float64(p.nt)
	out["halo.shell_overhead_frac"] = out["halo.shell_points_per_step"] / float64(p.points())
	return nil
}

// ---- survey-8shot ----

// surveyInputs generates the survey from the run's jitter: shots on the
// grid diagonal, all shifted by the same offset. Everything not named
// here is left at the library default — this is the zero-knob user path.
func (rc *runCtx) surveyInputs(shots, nt int) (propagators.Config, propagators.ShotsConfig) {
	n := rc.sz.surveyN
	cfg := propagators.Config{Shape: []int{n, n}, SpaceOrder: rc.sz.surveySO}
	sc := propagators.ShotsConfig{
		Gradient: propagators.GradientConfig{NT: nt, NReceivers: rc.sz.surveyRec},
		Workers:  2,
		Cache:    opcache.New(), // fresh cache: every survey compiles cold
	}
	for s := 0; s < shots; s++ {
		at := float64(n-1) * float64(s+1) / float64(shots+1)
		sc.Shots = append(sc.Shots, propagators.Shot{
			SourceCoords: []float64{at + float64(rc.jitter[0]), at + float64(rc.jitter[1])},
		})
	}
	return cfg, sc
}

func (rc *runCtx) surveyKey() string {
	return fmt.Sprintf("acoustic-so%d-n%d-nt%d-s%d", rc.sz.surveySO, rc.sz.surveyN, rc.sz.surveyNT, rc.sz.surveyShots)
}

// oneSurvey runs and checks one cold survey.
func (rc *runCtx) oneSurvey(tr *tracer, rep int) (*propagators.ShotsResult, float64, error) {
	cfg, sc := rc.surveyInputs(rc.sz.surveyShots, rc.sz.surveyNT)
	settle()
	sp := tr.begin("propagators.RunShots", -1, rep)
	t0 := time.Now()
	res, err := propagators.RunShots("acoustic", cfg, sc)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	rc.check(rc.gold.checkSurvey(rc.surveyKey(), rc.jitter, res.GradNorm))
	return res, wall, nil
}

func (rc *runCtx) survey() error {
	if rc.trace {
		return rc.surveyLayers()
	}
	// Set-up is a cold (fresh-cache) one-shot NT=4 survey, one before
	// every timed survey.
	var walls, setup, best []float64 // best: fastest run of each shot so far
	workers := 0
	err := rc.sampleRSS(func() error {
		for rep, timed := 0, 0.0; rc.more(rep, timed, 1); rep++ {
			cfg, sc := rc.surveyInputs(1, 4)
			settle()
			t0 := time.Now()
			if _, err := propagators.RunShots("acoustic", cfg, sc); err != nil {
				return err
			}
			setup = append(setup, time.Since(t0).Seconds())
			res, wall, err := rc.oneSurvey(nil, rep)
			if err != nil {
				return err
			}
			walls = append(walls, wall)
			timed += wall
			shots := make([]float64, len(res.Shots))
			for i, s := range res.Shots {
				shots[i] = s.Seconds
			}
			best, workers = keepFastest(best, shots), res.Workers
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A whole survey (1.2 s) is too long a sample for the host to leave
	// alone, so the survey wall is put together from its shots: the
	// fastest run of each, handed to the shot workers the way shotsched
	// hands them out. The fastest measured wall is printed beside it.
	wall := listSchedule(best, workers)
	fmt.Fprintf(rc.log, "survey wall: %.4f s from the fastest run of each shot, %.4f s fastest measured, %.4f s median\n",
		wall, fastest(walls), median(walls))
	rc.out["useful_gpts_per_s"] = rc.surveyPoints() / wall / 1e9
	rc.out["setup_s"] = fastest(setup)
	return nil
}

// surveyPoints is the useful work of one survey: every shot advances the
// global grid NT forward and NT adjoint steps. Checkpoint recompute and
// the imaging kernel are what it costs, not what it delivers.
func (rc *runCtx) surveyPoints() float64 {
	n := rc.sz.surveyN
	return float64(rc.sz.surveyShots) * 2 * float64(rc.sz.surveyNT) * float64(n*n)
}

func (rc *runCtx) surveyLayers() error {
	out := rc.out
	n, so := rc.sz.surveyN, rc.sz.surveySO

	// The default engine's kernel alone, and the layers a shot leans on.
	for _, engine := range []string{core.EngineBytecode, core.EngineNative} {
		ns, flops, instrs, streams, err := probeKernel(n, so, 0, engine, max(3, rc.sz.probeIters/4), rc.tr)
		if err != nil {
			return err
		}
		out[engine+".kernel_ns_per_point"] = ns
		out[engine+".instrs_per_point"] = float64(instrs)
		if engine == core.EngineNative {
			out["native.flops_per_point"] = float64(flops)
			out["native.bytes_per_point_computed"] = float64(4 * streams)
		}
	}
	alloc, err := probeFieldAlloc(n, so, rc.tr)
	if err != nil {
		return err
	}
	out["field.alloc_ms"] = alloc * 1e3
	p := stepProblem{n: n, so: so, nt: rc.sz.surveyNT, ranks: 1, mode: halo.ModeNone, k: 1, jitter: rc.jitter}
	sm, err := newStepModel(p, nil, rc.tr, -1, 0)
	if err != nil {
		return err
	}
	out["propagators.build_ms"] = sm.buildS * 1e3
	out["core.new_operator_ms"] = sm.newOpS * 1e3
	probeSparse(sm, rc.sz.probeIters, rc.tr, out)
	probeCheckpoint(sm.u, max(3, rc.sz.probeIters/10), rc.tr, out)
	stages, err := replayStages(sm.m, sm.op, halo.ModeNone, rc.tr, 0)
	sm.op.Close()
	if err != nil {
		return err
	}
	stages.into(out, sm.newOpS)

	// One standalone gradient: where a shot's time goes.
	cfg, sc := rc.surveyInputs(1, rc.sz.surveyNT)
	m, err := propagators.Build("acoustic", cfg)
	if err != nil {
		return err
	}
	gc := sc.Gradient
	gc.SourceCoords = sc.Shots[0].SourceCoords
	sp := rc.tr.begin("propagators.RunGradient", -1, 0)
	t0 := time.Now()
	gres, err := propagators.RunGradient(m, nil, gc)
	gwall := time.Since(t0).Seconds()
	rc.tr.end(sp)
	if err != nil {
		return err
	}
	out["checkpoint.bytes"] = float64(gres.Checkpoint.SnapshotBytes)
	out["checkpoint.recomputed_steps"] = float64(gres.Checkpoint.RecomputedSteps)
	out["propagators.forward_frac"] = (gres.ForwardPerf.ComputeSeconds + gres.ForwardPerf.HaloSeconds) / gwall
	out["propagators.adjoint_frac"] = (gres.AdjointPerf.ComputeSeconds + gres.AdjointPerf.HaloSeconds) / gwall
	rc.configs[rc.workload+"/forward"] = gres.ForwardConfig
	rc.configs[rc.workload+"/adjoint"] = gres.AdjointConfig

	// Untraced surveys.
	var walls, shotMs, firstMs, busy []float64
	var last *propagators.ShotsResult
	for rep, timed := 0, 0.0; rc.more(rep, timed, 0.5); rep++ {
		res, wall, err := rc.oneSurvey(nil, rep)
		if err != nil {
			return err
		}
		last = res
		walls = append(walls, wall)
		timed += wall
		sum := 0.0
		for _, s := range res.Shots {
			shotMs = append(shotMs, s.Seconds*1e3)
			sum += s.Seconds
		}
		firstMs = append(firstMs, res.Shots[0].Seconds*1e3)
		busy = append(busy, sum/(float64(res.Workers)*wall))
	}
	out["propagators.shots_per_s"] = float64(rc.sz.surveyShots) / median(walls)
	out["shotsched.shot_ms_p50"] = median(shotMs)
	_, out["shotsched.shot_ms_tail"] = tail(shotMs)
	out["shotsched.first_shot_ms"] = median(firstMs)
	out["shotsched.busy_frac"] = median(busy)
	out["opcache.hits"] = float64(last.CacheStats.Hits)
	out["opcache.misses"] = float64(last.CacheStats.Misses)
	out["opcache.hit_rate"] = last.CacheStats.HitRate()

	// Traced surveys.
	var tracedWall []float64
	spans := 0
	for rep, timed := 0, 0.0; rc.more(rep, timed, 0.25); rep++ {
		var wall float64
		h, err := traced(func() (err error) {
			_, wall, err = rc.oneSurvey(rc.tr, 1000+rep)
			return err
		})
		if err != nil {
			return err
		}
		tracedWall = append(tracedWall, wall)
		timed += wall
		spans = h.spans
	}
	if err := obs.WriteTraceFile(filepath.Join(rc.outDir, rc.stem()+".obs.trace.json")); err != nil {
		return err
	}
	obs.Reset()
	out["obs.spans_per_rep"] = float64(spans)
	out["obs.trace_overhead_frac"] = median(tracedWall)/median(walls) - 1
	return nil
}

// ---- construct-cold ----

type constructCase struct {
	model string
	so    int
}

func (c constructCase) key(n int) string {
	return fmt.Sprintf("%s-so%d-n%d-r2-full", c.model, c.so, n)
}

// constructCases lists the round's constructs in the seed's order.
func (rc *runCtx) constructCases() []constructCase {
	var cases []constructCase
	for _, m := range propagators.ModelNames() {
		for _, so := range rc.sz.constructSOs {
			cases = append(cases, constructCase{m, so})
		}
	}
	rc.rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// roundResult is rank 0's view of one round.
type roundResult struct {
	wall, buildS, newOpS float64
	caseS                []float64 // Build + NewOperator seconds of each case, in round order
	hashes               map[string]string
	stages               stageTimes
}

// constructRound is one round: inside a 2-rank world under the full
// pattern (so halo detection, HaloSpot optimisation and the
// mode-specific lowering all run), every case is cold-built, compiled
// with no cache, and closed. Nothing is stepped. With replay set, rank 0
// also replays each case's compiler stages one exported call at a time.
func (rc *runCtx) constructRound(cases []constructCase, tr *tracer, rep int, replay bool) (*roundResult, error) {
	res := &roundResult{hashes: map[string]string{}}
	n := rc.sz.constructN
	settle()
	root := tr.begin("round", -1, rep)
	t0 := time.Now()
	err := withWorld(2, func(c *mpi.Comm) error {
		ctx, err := rankContext(c, n, halo.ModeFull)
		if err != nil {
			return err
		}
		var rtr *tracer
		if c.Rank() == 0 {
			rtr = tr
		}
		for _, cs := range cases {
			sp := rtr.begin("propagators.Build", root, rep)
			b0 := time.Now()
			m, err := propagators.Build(cs.model, propagators.Config{
				Shape: []int{n, n}, SpaceOrder: cs.so, NBL: 8, Velocity: 1.5, Decomp: ctx.Decomp, Rank: c.Rank()})
			bs := time.Since(b0).Seconds()
			rtr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", cs.key(n), err)
			}
			sp = rtr.begin("core.NewOperator", root, rep)
			o0 := time.Now()
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{
				Name: m.Name, Engine: core.EngineNative, Workers: 1, TimeTile: 1})
			os := time.Since(o0).Seconds()
			rtr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", cs.key(n), err)
			}
			if c.Rank() == 0 {
				res.buildS += bs
				res.newOpS += os
				res.caseS = append(res.caseS, bs+os)
				res.hashes[cs.key(n)] = constructHash(op)
				rc.configs[rc.workload+"/"+cs.key(n)] = op.Config()
				if replay {
					st, err := replayStages(m, op, halo.ModeFull, rtr, rep)
					if err != nil {
						return fmt.Errorf("%s: replay: %w", cs.key(n), err)
					}
					res.stages.add(st)
				}
			}
			op.Close()
		}
		return nil
	})
	res.wall = time.Since(t0).Seconds()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	msg := ""
	for _, cs := range cases {
		if m := rc.gold.checkConstruct(cs.key(n), res.hashes[cs.key(n)]); m != "" && msg == "" {
			msg = m
		}
	}
	rc.check(msg)
	return res, nil
}

func (rc *runCtx) construct() error {
	cases := rc.constructCases()
	n := rc.sz.constructN
	out := rc.out
	var walls, build, newOp []float64
	var best []float64 // fastest construct of each case so far
	share := 1.0
	if rc.trace {
		share = 0.5
	}
	err := rc.sampleRSS(func() error {
		for rep, timed := 0, 0.0; rc.more(rep, timed, share); rep++ {
			r, err := rc.constructRound(cases, nil, rep, false)
			if err != nil {
				return err
			}
			walls, build, newOp = append(walls, r.wall), append(build, r.buildS), append(newOp, r.newOpS)
			timed += r.wall
			best = keepFastest(best, r.caseS)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !rc.trace {
		// A round makes len(cases) grids ready to step; nothing steps, so
		// the rate counts the points made ready. A whole round (0.4 s) is
		// too long a sample for the host to leave alone, so the round time
		// is put together from its cases: the fastest Build + NewOperator
		// of each, added up. On this workload that is also the set-up
		// time: constructing is all it does.
		round := 0.0
		for _, s := range best {
			round += s
		}
		fmt.Fprintf(rc.log, "round: %.4f s from the fastest construct of each case, %.4f s fastest measured, %.4f s median\n",
			round, fastest(walls), median(walls))
		out["useful_gpts_per_s"] = float64(len(cases)*n*n) / round / 1e9
		out["setup_s"] = round
		return nil
	}
	out["propagators.build_ms"] = median(build) * 1e3
	out["core.new_operator_ms"] = median(newOp) * 1e3

	r, err := rc.constructRound(cases, rc.tr, 500, true)
	if err != nil {
		return err
	}
	r.stages.into(out, r.newOpS)

	var tracedWall []float64
	spans := 0
	for rep, timed := 0, 0.0; rc.more(rep, timed, 0.25); rep++ {
		var r *roundResult
		h, err := traced(func() (err error) {
			r, err = rc.constructRound(cases, rc.tr, 1000+rep, false)
			return err
		})
		if err != nil {
			return err
		}
		tracedWall = append(tracedWall, r.wall)
		timed += r.wall
		spans = h.spans
	}
	obs.Reset()
	out["obs.spans_per_rep"] = float64(spans)
	out["obs.trace_overhead_frac"] = median(tracedWall)/median(walls) - 1
	return nil
}
