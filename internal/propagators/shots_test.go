package propagators

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"devigo/internal/checkpoint"
	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/obs"
	"devigo/internal/opcache"
	"devigo/internal/sparse"
)

// surveyConfig is the shared grid/velocity configuration of the shot
// tests; RunShots owns the decomposition, so Decomp/Rank stay unset.
func surveyConfig() Config {
	return Config{Shape: []int{24, 24}, SpaceOrder: 2, NBL: 0, Velocity: 1}
}

// surveyShots is a small survey with per-shot source positions.
func surveyShots() []Shot {
	return []Shot{
		{SourceCoords: []float64{8, 8}},
		{SourceCoords: []float64{12, 12}},
		{SourceCoords: []float64{16, 15}},
	}
}

func surveyGradient() GradientConfig {
	return GradientConfig{
		NT:                 8,
		Wavelet:            []float32{1, -2, 1},
		ReceiverCoords:     [][]float64{{6, 5}, {11, 9}, {15, 14}, {17, 16}},
		CheckpointInterval: 3,
	}
}

// sequentialStack is the reference the service must reproduce bit for bit:
// an explicit loop over RunGradient — fresh model, fresh operators, no
// cache, no scheduler — stacked in shot order.
func sequentialStack(t *testing.T, cfg Config, gc GradientConfig, shots []Shot) ([]float32, []float64) {
	t.Helper()
	total := 1
	for _, s := range cfg.Shape {
		total *= s
	}
	stack := make([]float32, total)
	misfits := make([]float64, 0, len(shots))
	for _, s := range shots {
		g := gc
		if s.SourceCoords != nil {
			g.SourceCoords = s.SourceCoords
		}
		if s.ObsData != nil {
			g.ObsData = s.ObsData
		}
		m, err := Build("acoustic", cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunGradient(m, nil, g)
		if err != nil {
			t.Fatal(err)
		}
		grad := make([]float32, total)
		scatterOwned(grad, cfg.Shape, res.Gradient, 0)
		for i, v := range grad {
			stack[i] += v
		}
		misfits = append(misfits, misfitOf(res.Receivers, g.ObsData))
	}
	return stack, misfits
}

// TestRunShotsBitExactSerial: the service must reproduce the explicit
// sequential loop bit for bit — for every engine, with and without time
// tiling, on a one- and a two-worker pool inside each shot (the pool is
// the in-shot parallel path), at every shot-worker count, including one
// above the shot count.
func TestRunShotsBitExactSerial(t *testing.T) {
	for _, engine := range engines() {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", engine, k), func(t *testing.T) {
				cfg := surveyConfig()
				gc := surveyGradient()
				gc.Engine = engine
				gc.TimeTile = k
				want, wantMisfits := sequentialStack(t, cfg, gc, surveyShots())
				for _, pool := range []int{1, 2} {
					t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
						gc := gc
						gc.Workers = pool
						// 8 workers over 3 shots run, and report, 3 in flight.
						for _, workers := range []int{1, 3, 8} {
							res, err := RunShots("acoustic", cfg, ShotsConfig{
								Gradient: gc, Shots: surveyShots(),
								Workers: workers, Cache: opcache.New(),
							})
							if err != nil {
								t.Fatal(err)
							}
							if want := min(workers, len(surveyShots())); res.Workers != want {
								t.Errorf("workers=%d: effective workers %d, want %d", workers, res.Workers, want)
							}
							for i := range want {
								if res.Gradient[i] != want[i] {
									t.Fatalf("workers=%d: stack diverges from sequential loop at %d: %v vs %v",
										workers, i, res.Gradient[i], want[i])
								}
							}
							if res.GradNorm == 0 {
								t.Fatalf("workers=%d: zero stacked gradient", workers)
							}
							for i, s := range res.Shots {
								if s.Shot != i {
									t.Fatalf("workers=%d: shot log out of order: %+v", workers, res.Shots)
								}
								if s.Misfit != wantMisfits[i] {
									t.Errorf("workers=%d: shot %d misfit %v, sequential %v",
										workers, i, s.Misfit, wantMisfits[i])
								}
								// Realistic (non-exact-arithmetic) config: the
								// identity holds to float32 rounding, like
								// TestAdjointDotProduct_Realistic.
								if s.RelErr > 2e-5 {
									t.Errorf("workers=%d: shot %d adjoint identity violated: rel %v",
										workers, i, s.RelErr)
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestRunGradientDefaultEngineBitExact certifies the default on the exact
// user path: RunGradient with no engine named runs the native engine on
// both operators and reproduces the bytecode engine's gradient, receivers
// and source traces bit for bit — at a checkpoint interval that divides NT
// and at one with NT % k == 1, where the last reverse step needs a forward
// level one past the final segment's window (the edge of
// checkpoint.Store.Load's replay).
func TestRunGradientDefaultEngineBitExact(t *testing.T) {
	run := func(engine string, k int) *GradientResult {
		t.Helper()
		m, err := Build("acoustic", surveyConfig())
		if err != nil {
			t.Fatal(err)
		}
		gc := surveyGradient()
		gc.Engine = engine
		gc.CheckpointInterval = k
		res, err := RunGradient(m, nil, gc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, k := range []int{4, 7} { // NT = 8
		got, want := run("", k), run(core.EngineBytecode, k)
		if f, a := got.ForwardConfig.Engine, got.AdjointConfig.Engine; f != core.EngineNative || a != core.EngineNative {
			t.Errorf("k=%d: default engines forward %q, adjoint %q; want %q for both", k, f, a, core.EngineNative)
		}
		if want.ForwardConfig.Engine != core.EngineBytecode {
			t.Fatalf("k=%d: reference ran %q", k, want.ForwardConfig.Engine)
		}
		g, w := got.Gradient.Buf(0).Data, want.Gradient.Buf(0).Data
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("k=%d: gradient diverges from bytecode at %d: %v vs %v", k, i, g[i], w[i])
			}
		}
		for step := range want.Receivers {
			for r, v := range want.Receivers[step] {
				if got.Receivers[step][r] != v {
					t.Fatalf("k=%d: receiver %d at step %d: %v vs %v", k, r, step, got.Receivers[step][r], v)
				}
			}
			if got.SrcTraces[step] != want.SrcTraces[step] {
				t.Fatalf("k=%d: source trace at step %d: %v vs %v", k, step, got.SrcTraces[step], want.SrcTraces[step])
			}
		}
		if got.GradNorm == 0 {
			t.Fatalf("k=%d: zero gradient", k)
		}
	}
}

// TestInjectionErrorSurfaces: a hook whose injection fails must fail the
// run that ran it, naming model and step, instead of finishing on a field
// that silently missed its source. No public configuration builds a
// source whose point count disagrees with its one wavelet sample per step,
// so the test hands forward such a source directly.
func TestInjectionErrorSurfaces(t *testing.T) {
	m, err := Build("acoustic", surveyConfig())
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	rc := RunConfig{NT: 4, Wavelet: []float32{1, -2, 1}}
	srcs, err := buildSources(m, &rc, m.CriticalDt, rc.NT)
	if err != nil {
		t.Fatal(err)
	}
	srcs.src, err = sparse.New("src", m.Grid, [][]float64{{8, 8}, {12, 12}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := forward(m, nil, op, srcs, rc.Autotune, nil, rc.NT, m.CriticalDt)
	if err == nil {
		t.Fatalf("forward returned a result (norm %v) although every injection failed", res.Norm)
	}
	for _, frag := range []string{m.Name, "step 0", "1 values for 2 points"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("injection error %q lacks %q", err, frag)
		}
	}
}

// TestRunShotsCacheAccounting pins the service's deterministic cache
// arithmetic: a survey on W shot workers builds each of the three gradient
// operators (forward, adjoint, imaging) once per worker and lowers each
// schedule exactly once — 3 misses, 3(W-1) hits, hit rate (W-1)/W, 3
// entries — however many shots it solves, whether the cache is the
// caller's or the survey's own, and the obs counters agree.
func TestRunShotsCacheAccounting(t *testing.T) {
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	obs.Reset()

	shots := append(surveyShots(), Shot{SourceCoords: []float64{18, 6}})
	n, workers := len(shots), 2
	res, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: surveyGradient(), Shots: shots, Workers: workers, Cache: opcache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	own, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: surveyGradient(), Shots: shots, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	const uniqueSchedules = 3
	want := opcache.Stats{Hits: int64(uniqueSchedules * (workers - 1)), Misses: uniqueSchedules, Entries: uniqueSchedules}
	for _, st := range []opcache.Stats{res.CacheStats, own.CacheStats} {
		if st != want {
			t.Errorf("cache stats = %+v, want %+v (one miss per unique schedule)", st, want)
		}
		if rate := float64(workers-1) / float64(workers); st.HitRate() != rate {
			t.Errorf("hit rate = %v, want (W-1)/W = %v", st.HitRate(), rate)
		}
	}

	total := obs.Snapshot().Total
	if total.ShotsDone != int64(2*n) {
		t.Errorf("obs shots-done = %d, want %d over both surveys", total.ShotsDone, 2*n)
	}
	if total.ShotWorkers != 2 {
		t.Errorf("obs shot-workers gauge = %d, want 2", total.ShotWorkers)
	}
	if total.CkptSaves <= 0 || total.CkptRestores <= 0 {
		t.Errorf("obs checkpoint counters = %d saves / %d restores, want both > 0 (every shot checkpoints its forward run)",
			total.CkptSaves, total.CkptRestores)
	}
}

// reuseSurvey is the survey of the solver-reuse tests: five shots with
// distinct source positions, wavelets and observed data, so anything one
// shot left in a reused solver would show in the next.
func reuseSurvey() (Config, GradientConfig, []Shot) {
	cfg := Config{Shape: []int{32, 28}, SpaceOrder: 4, NBL: 4, Velocity: 1.5}
	gc := GradientConfig{
		NT:                 14,
		ReceiverCoords:     [][]float64{{6, 5}, {11, 9}, {15, 14}, {20, 16}, {25, 20}},
		CheckpointInterval: 3,
	}
	var shots []Shot
	for i, at := range [][]float64{{8, 8}, {12, 12}, {16, 15}, {20, 9}, {24, 19}} {
		obs := make([][]float64, gc.NT)
		for t := range obs {
			obs[t] = make([]float64, len(gc.ReceiverCoords))
			for r := range obs[t] {
				obs[t][r] = 1e-3 * float64((t+1)*(r+2+i)%7)
			}
		}
		amp := float32(i + 1)
		shots = append(shots, Shot{SourceCoords: at, Wavelet: []float32{amp, -2 * amp, amp, 0.5}, ObsData: obs})
	}
	return cfg, gc, shots
}

// shotRecord is one shot's gradient assembled on the global grid, with
// the figures a fresh and a reused solver must agree on.
type shotRecord struct {
	grad []float32
	// state is every buffer of the forward and adjoint wavefields after
	// the shot, halos included: what a reused solver carries into its next
	// shot.
	state []float32
	shotFigures
}

type shotFigures struct {
	gradNorm, misfit, rel float64
	ckpt                  checkpoint.Stats
	fwdSteps, adjSteps    int
	fwdPoints, adjPoints  int64
}

// solveShots solves every shot — on one reused solver when reuse is set,
// else each on a fresh model and solver (RunGradient's own path, kept open
// to read its wavefields) — and returns the shots' records.
func solveShots(t *testing.T, cfg Config, gc GradientConfig, shots []Shot, reuse bool) []shotRecord {
	t.Helper()
	recs := make([]shotRecord, len(shots))
	var reused *gradientSolver
	for i, shot := range shots {
		sv, solveAs := reused, shot
		if sv == nil {
			m, err := Build("acoustic", cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := gc
			if !reuse {
				base, solveAs = gc.withShot(shot), Shot{}
			}
			if sv, err = newGradientSolver(m, nil, base, nil); err != nil {
				t.Fatal(err)
			}
			defer sv.close()
			if reuse {
				reused = sv
			}
		}
		res, err := sv.solve(solveAs)
		if err != nil {
			t.Fatal(err)
		}
		r := &recs[i]
		r.grad = make([]float32, cfg.Shape[0]*cfg.Shape[1])
		scatterOwned(r.grad, cfg.Shape, res.Gradient, 0)
		for _, f := range []*field.Function{sv.m.Fields["u"], sv.adj.Fields["v"]} {
			for bi := range f.Bufs {
				b := f.Buf(bi)
				r.state = append(r.state, b.Data...)
			}
		}
		r.gradNorm, r.misfit, r.rel = res.GradNorm, res.Misfit, res.RelErr
		r.ckpt = res.Checkpoint
		r.fwdSteps, r.adjSteps = res.ForwardPerf.Timesteps, res.AdjointPerf.Timesteps
		r.fwdPoints, r.adjPoints = res.ForwardPerf.PointsUpdated, res.AdjointPerf.PointsUpdated
	}
	// Ghost points are rewritten before any read, so stale halos would not
	// move a bit: check the reset itself leaves none.
	if reused != nil {
		reused.reset()
		for _, f := range []*field.Function{reused.m.Fields["u"], reused.adj.Fields["v"], reused.grad} {
			for bi := range f.Bufs {
				b := f.Buf(bi)
				if i := slices.IndexFunc(b.Data, func(v float32) bool { return v != 0 }); i >= 0 {
					t.Fatalf("reset left %s buffer %d [%d] = %v", f.Name, bi, i, b.Data[i])
				}
			}
		}
	}
	return recs
}

// TestRunShotsReusedWorkerBitExact: a shot worker solves its shots on one
// solver, zeroing wavefields (halos included), gradient and checkpoint
// store in between. Five distinct shots on two workers — one solves three —
// must equal a loop of fresh RunGradient calls bit for bit, per shot and
// stacked, untiled and with time tile 4; a solver reused directly must also
// match each fresh shot's gradient, wavefields (halos included), checkpoint
// counters and operator counters, and its reset must zero every buffer.
// A shot solves on one rank with no halo exchange, which the case names
// record as ranks=1/basic.
func TestRunShotsReusedWorkerBitExact(t *testing.T) {
	cfg, base, shots := reuseSurvey()
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks=1/basic/k=%d", k), func(t *testing.T) {
			gc := base
			gc.TimeTile = k
			fresh := solveShots(t, cfg, gc, shots, false)
			reused := solveShots(t, cfg, gc, shots, true)
			for i := range shots {
				f, r := fresh[i], reused[i]
				if !slices.Equal(r.grad, f.grad) {
					t.Errorf("shot %d: reused solver's gradient differs from a fresh solver's", i)
				}
				if !slices.Equal(r.state, f.state) {
					t.Errorf("shot %d: reused solver's wavefields differ from a fresh solver's, halos included", i)
				}
				if r.shotFigures != f.shotFigures {
					t.Errorf("shot %d: reused solver %+v, fresh %+v", i, r.shotFigures, f.shotFigures)
				}
			}

			res, err := RunShots("acoustic", cfg, ShotsConfig{Gradient: gc, Shots: shots, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			stack := make([]float32, len(fresh[0].grad))
			for i, f := range fresh {
				for j, v := range f.grad {
					stack[j] += v
				}
				s := res.Shots[i]
				if s.GradNorm != f.gradNorm || s.Misfit != f.misfit || s.RelErr != f.rel {
					t.Errorf("shot %d: survey norm %v misfit %v rel %v, fresh %v %v %v",
						i, s.GradNorm, s.Misfit, s.RelErr, f.gradNorm, f.misfit, f.rel)
				}
			}
			if !slices.Equal(res.Gradient, stack) {
				t.Error("survey stack differs from the stacked fresh gradients")
			}
		})
	}
}

// TestSharedScheduleWithScratch: a schedule whose clusters write CIRE
// scratch (TTI) is shared through the cache like any other: a later
// operator adopts the first one's schedule, allocates scratch storage of
// its own, and runs bit-identically to a privately lowered operator.
func TestSharedScheduleWithScratch(t *testing.T) {
	cache := opcache.New()
	var norms []float64
	var ops []*core.Operator
	var scratch []*field.Function
	for _, c := range []*opcache.Cache{nil, cache, cache} {
		m, err := Build("tti", Config{Shape: []int{24, 24}, SpaceOrder: 4, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(m, nil, RunConfig{NT: 12}, c)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Op.Close()
		norms = append(norms, res.Norm)
		ops = append(ops, res.Op)
		scratch = append(scratch, m.Fields["cire0"])
	}
	if norms[0] == 0 || norms[1] != norms[0] || norms[2] != norms[0] {
		t.Errorf("norms private %v, first cached %v, second cached %v: want one nonzero value", norms[0], norms[1], norms[2])
	}
	if ops[1].Schedule != ops[2].Schedule || ops[0].Schedule == ops[1].Schedule {
		t.Error("operators sharing a cache must share one schedule, and only they")
	}
	if scratch[1] == nil || scratch[1] == scratch[2] {
		t.Errorf("each operator must allocate its own CIRE scratch field: %p, %p", scratch[1], scratch[2])
	}
	if st := cache.Stats(); st != (opcache.Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit on 1 entry", st)
	}
}

// TestRunShotsTunesEveryWorker: the cache shares no tuning, so under the
// search policy every shot worker's forward and adjoint operators tune
// themselves on the worker's first shot — one chosen decision each — and
// keep that choice for its later shots; the tuned survey stacks the
// untuned survey's bits.
func TestRunShotsTunesEveryWorker(t *testing.T) {
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	obs.Reset()

	const workers = 2
	survey := func(policy string) *ShotsResult {
		gc := surveyGradient()
		gc.Autotune = policy
		res, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
			Gradient: gc, Shots: surveyShots(), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := survey(core.AutotuneOff)
	tuned := survey(core.AutotuneSearch)
	if tuned.GradNorm != plain.GradNorm || tuned.Misfit != plain.Misfit {
		t.Errorf("tuned survey GradNorm %v misfit %v, untuned %v %v: want the same bits",
			tuned.GradNorm, tuned.Misfit, plain.GradNorm, plain.Misfit)
	}
	chosen := 0
	for _, d := range obs.Snapshot().Decisions {
		if d.Chosen {
			chosen++
		}
	}
	if want := 2 * workers; chosen != want {
		t.Errorf("%d chosen decisions, want %d (forward and adjoint of every worker)", chosen, want)
	}
}

// TestRunShotsResidualMisfit: a shot observing its own synthetics has zero
// residual — zero misfit and zero gradient contribution — so the survey
// degenerates to the remaining shots.
func TestRunShotsResidualMisfit(t *testing.T) {
	cfg := surveyConfig()
	gc := surveyGradient()

	// Record shot 1's synthetics by running it alone.
	solo, err := RunShots("acoustic", cfg, ShotsConfig{
		Gradient: gc, Shots: []Shot{{SourceCoords: []float64{12, 12}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build("acoustic", cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1 := gc
	g1.SourceCoords = []float64{12, 12}
	fres, err := RunGradient(m, nil, g1)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Misfit == 0 {
		t.Fatal("degenerate survey: zero misfit without observed data")
	}

	shots := []Shot{
		{SourceCoords: []float64{8, 8}},
		{SourceCoords: []float64{12, 12}, ObsData: fres.Receivers},
	}
	res, err := RunShots("acoustic", cfg, ShotsConfig{Gradient: gc, Shots: shots})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots[1].Misfit != 0 || res.Shots[1].GradNorm != 0 {
		t.Errorf("self-observed shot: misfit %v, grad norm %v, want zero",
			res.Shots[1].Misfit, res.Shots[1].GradNorm)
	}
	if res.Shots[0].Misfit == 0 || res.Misfit != res.Shots[0].Misfit {
		t.Errorf("survey misfit %v should equal shot 0's %v", res.Misfit, res.Shots[0].Misfit)
	}

	// A shot without its own ObsData inherits the survey-wide one, for its
	// misfit as for its gradient.
	inherited := gc
	inherited.ObsData = fres.Receivers
	res, err = RunShots("acoustic", cfg, ShotsConfig{
		Gradient: inherited, Shots: []Shot{{SourceCoords: []float64{12, 12}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots[0].Misfit != 0 || res.Shots[0].GradNorm != 0 {
		t.Errorf("shot inheriting its own synthetics as ObsData: misfit %v, grad norm %v, want zero",
			res.Shots[0].Misfit, res.Shots[0].GradNorm)
	}
}

// TestRunShotsValidation covers the service's configuration errors.
func TestRunShotsValidation(t *testing.T) {
	cfg := surveyConfig()
	gc := surveyGradient()
	if _, err := RunShots("acoustic", cfg, ShotsConfig{Gradient: gc}); err == nil {
		t.Error("empty survey accepted")
	}
	g := grid.MustNew([]int{24, 24}, nil)
	dec, err := grid.NewDecomposition(g, 4, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Decomp = dec
	if _, err := RunShots("acoustic", bad, ShotsConfig{Gradient: gc, Shots: surveyShots()}); err == nil {
		t.Error("pre-decomposed Config accepted; RunShots owns the decomposition")
	}
	if _, err := RunShots("acoustic", cfg, ShotsConfig{
		Gradient: gc, Shots: surveyShots(), Workers: -1,
	}); err == nil || !strings.Contains(err.Error(), "ShotsConfig.Workers") {
		t.Errorf("negative Workers: err = %v, want one naming ShotsConfig.Workers", err)
	}
}

// TestInOrderReducesAscending is the fan-out's core guarantee: shots
// completing out of order are still reduced in ascending shot order, so a
// non-associative fold is identical for any worker count.
func TestInOrderReducesAscending(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	for _, workers := range []int{1, 3, 8, n + 5} {
		var order []int
		err := inOrder(n, workers,
			func(_, shot int) (int, error) {
				time.Sleep(delays[shot])
				return shot * shot, nil
			},
			func(shot int, v int) {
				if v != shot*shot {
					t.Errorf("shot %d carried %d", shot, v)
				}
				order = append(order, shot)
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != n {
			t.Fatalf("workers=%d: reduced %d shots, want %d", workers, len(order), n)
		}
		for i, s := range order {
			if s != i {
				t.Fatalf("workers=%d: reduction order %v not ascending", workers, order)
			}
		}
	}
}

// TestInOrderBoundsInFlight: never more than workers shots run at once.
func TestInOrderBoundsInFlight(t *testing.T) {
	var inFlight, peak atomic.Int64
	const workers = 3
	err := inOrder(24, workers,
		func(_, shot int) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		}, func(int, struct{}) {})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d shots in flight, bound is %d", p, workers)
	}
}

// TestInOrderFailureNamesSmallestShot: with shots 5 and 9 failing (5 the
// slower, so 9 usually fails first in time), the error names shot 5 every
// time, nothing from shot 5 onwards is reduced, and no shot is still
// running when inOrder returns (shot 6 outlasts shot 5). With one worker
// a failure is deterministic: no shot after it starts.
func TestInOrderFailureNamesSmallestShot(t *testing.T) {
	boom := errors.New("boom")
	for rep := 0; rep < 20; rep++ {
		var running atomic.Int64
		reduced := map[int]bool{}
		err := inOrder(16, 4,
			func(_, shot int) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				switch shot {
				case 5:
					time.Sleep(2 * time.Millisecond)
					return 0, boom
				case 6:
					time.Sleep(5 * time.Millisecond)
				case 9:
					return 0, boom
				}
				return shot, nil
			},
			func(shot int, v int) { reduced[shot] = true })
		if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "propagators: shot 5: ") {
			t.Fatalf("rep %d: error %v does not name the smallest failing shot", rep, err)
		}
		for s := range reduced {
			if s >= 5 {
				t.Fatalf("rep %d: shot %d was reduced past the failure point", rep, s)
			}
		}
		if len(reduced) != 5 {
			t.Fatalf("rep %d: reduced %d shots, want 0..4", rep, len(reduced))
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("rep %d: %d shots still running after inOrder returned", rep, r)
		}
	}

	var started atomic.Int64
	err := inOrder(10, 1, func(_, shot int) (int, error) {
		started.Add(1)
		if shot == 3 {
			return 0, boom
		}
		return shot, nil
	}, func(int, int) {})
	if err == nil || !strings.Contains(err.Error(), "shot 3") {
		t.Fatalf("one worker: err = %v, want shot 3's", err)
	}
	if s := started.Load(); s != 4 {
		t.Errorf("one worker, shot 3 failing: %d shots started, want 4", s)
	}
}

// TestShotWorkers pins how ShotsConfig.Workers becomes the in-flight
// bound: an explicit count wins, 0 means 1, the count is capped at the
// number of shots, and a negative count is an error naming the field.
func TestShotWorkers(t *testing.T) {
	cases := []struct{ requested, shots, out int }{
		{6, 8, 6},
		{0, 8, 1},
		{1, 1, 1},
		{8, 3, 3},
		{0, 1, 1},
	}
	for _, c := range cases {
		if got, err := shotWorkers(c.requested, c.shots); got != c.out || err != nil {
			t.Errorf("shotWorkers(%d, %d) = %d, %v; want %d, nil", c.requested, c.shots, got, err, c.out)
		}
	}
	for _, bad := range []int{-1, -8} {
		if _, err := shotWorkers(bad, 4); err == nil || !strings.Contains(err.Error(), "ShotsConfig.Workers") {
			t.Errorf("shotWorkers(%d, 4): err = %v, want one naming ShotsConfig.Workers", bad, err)
		}
	}
}

// TestClampWorkers pins the oversubscription clamp's arithmetic.
func TestClampWorkers(t *testing.T) {
	cases := []struct {
		name                       string
		workers, shots, cores, out int
	}{
		{"fits exactly", 4, 2, 8, 4},
		{"fits with slack", 2, 2, 16, 2},
		{"halved", 8, 2, 8, 4},
		{"floor of division", 5, 3, 8, 2},
		{"never below one", 4, 16, 8, 1},
		{"single core", 3, 4, 1, 1},
		{"unknown cores is a no-op", 7, 9, 0, 7},
		{"degenerate inputs normalised", 0, 0, 4, 1},
	}
	for _, c := range cases {
		if got := clampWorkers(c.workers, c.shots, c.cores); got != c.out {
			t.Errorf("%s: clampWorkers(%d, %d, %d) = %d, want %d",
				c.name, c.workers, c.shots, c.cores, got, c.out)
		}
	}
	// The clamp never produces an oversubscribing product when it can
	// avoid one.
	for w := 1; w <= 8; w++ {
		for l := 1; l <= 8; l++ {
			for cpu := 1; cpu <= 16; cpu++ {
				got := clampWorkers(w, l, cpu)
				if got > 1 && got*l > cpu {
					t.Fatalf("clampWorkers(%d, %d, %d) = %d still oversubscribes", w, l, cpu, got)
				}
				if got < 1 {
					t.Fatalf("clampWorkers(%d, %d, %d) = %d below floor", w, l, cpu, got)
				}
			}
		}
	}
}

// TestRunShotsRace exercises the scheduler, the reducer and the in-shot
// worker pools under -race: three shot workers, each with a pool of two.
func TestRunShotsRace(t *testing.T) {
	gc := surveyGradient()
	gc.Workers = 2
	_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: gc, Shots: surveyShots(), Workers: 3, Cache: opcache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A shot whose observed data has the wrong length fails the survey with
// that shot's error, and with no other: on two shot workers its sibling
// shots solve, and the failure names the bad shot.
func TestRunShotsBadObsDataFailsTheShot(t *testing.T) {
	shots := surveyShots()
	shots[1].ObsData = make([][]float64, 3) // NT is 8
	err := returnsWithin(t, 30*time.Second, func() error {
		_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
			Gradient: surveyGradient(), Shots: shots, Workers: 2,
		})
		return err
	})
	if err == nil || !strings.HasPrefix(err.Error(), "propagators: shot 1: ") || !strings.Contains(err.Error(), "ObsData has 3 steps") {
		t.Errorf("got %v, want shot 1's ObsData error", err)
	}
}

// TestRunShotsRaceEngines is the per-engine arm of the race pass, for the
// default engine and its bytecode lowering: concurrent shot workers share
// one operator cache, so the singleflight lowering, every shot's own
// kernel compilation over the one shared schedule and the row executors'
// worker pools all run under the race detector at once.
func TestRunShotsRaceEngines(t *testing.T) {
	for _, engine := range []string{core.EngineBytecode, core.EngineNative} {
		t.Run(engine, func(t *testing.T) {
			gc := surveyGradient()
			gc.Engine = engine
			cache := opcache.New()
			// Two passes over the same cache: the first lowers (singleflight
			// under contention), the second builds every shot from hits.
			for pass := 0; pass < 2; pass++ {
				_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
					Gradient: gc, Shots: surveyShots(), Workers: 3, Cache: cache,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// A malformed $DEVIGO_WORKERS fails the survey up front — before any shot
// builds an operator — with the error naming the variable.
func TestRunShotsRejectsBadWorkersEnvUpFront(t *testing.T) {
	t.Setenv(core.WorkersEnvVar, "two")
	_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: surveyGradient(), Shots: surveyShots(),
	})
	if err == nil || !strings.Contains(err.Error(), core.WorkersEnvVar) {
		t.Fatalf("RunShots with %s=two: err = %v, want one naming the variable", core.WorkersEnvVar, err)
	}
	if strings.Contains(err.Error(), "shot ") {
		t.Errorf("the failure surfaced inside a shot, not before the survey started: %v", err)
	}
}

// TestRunShotsOversubscriptionClamp: a survey requesting far more
// shots-in-flight x compute-workers lanes than the host has cores must
// complete with the per-shot team clamped — and, because results are
// worker-count invariant, still reproduce the sequential stack bit for
// bit.
func TestRunShotsOversubscriptionClamp(t *testing.T) {
	cfg := surveyConfig()
	gc := surveyGradient()
	want, _ := sequentialStack(t, cfg, gc, surveyShots())
	over := gc
	over.Workers = 64 // 2 shots x 64 workers can't fit any host
	res, err := RunShots("acoustic", cfg, ShotsConfig{
		Gradient: over, Shots: surveyShots(), Workers: 2, Cache: opcache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("clamp must land on compute workers, not shots in flight: pool = %d", res.Workers)
	}
	for i := range want {
		if res.Gradient[i] != want[i] {
			t.Fatalf("clamped stack diverges from sequential loop at %d: %v vs %v",
				i, res.Gradient[i], want[i])
		}
	}
}

// TestSurveyAllocationBudget pins what a survey allocates once its
// workers are set up. Sparse injection allocates nothing and
// interpolation only the slice it returns. A shot beyond a worker's first
// builds nothing the size of a wavefield: the marginal shot — the
// TotalAlloc of a 6-shot survey minus a 2-shot one's, over the 4 extra
// shots, both on 2 workers and each the median of 5 runs — allocates
// fewer bytes than one time buffer of the forward wavefield (halos
// included), whereas building a solver allocates a dozen such buffers
// and the checkpoint store more. What it may allocate is per-call
// bookkeeping, the traces, and the dense gradient copies the reducer
// recycles (one extra copy lives while a worker runs ahead of the
// reduction).
func TestSurveyAllocationBudget(t *testing.T) {
	cfg := Config{Shape: []int{96, 96}, SpaceOrder: 16, NBL: 8, Velocity: 1.5}
	m, err := Build("acoustic", cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := m.Fields["u"]
	rec, err := sparse.New("rec", m.Grid, ReceiverLine(m.Grid, 8))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, rec.NPoints())
	for _, depth := range [][]int{nil, {64, 64}} {
		if n := testing.AllocsPerRun(20, func() {
			if err := rec.InjectDeep(u, 1, vals, depth); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("InjectDeep (depth %v) allocates %v times per call, want 0", depth, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() { rec.Interpolate(u, 1, nil) }); n > 1 {
		t.Errorf("Interpolate allocates %v times per call, want at most 1 (its result)", n)
	}

	gc := GradientConfig{NT: 16, NReceivers: 8}
	survey := func(n int) uint64 {
		sc := ShotsConfig{Gradient: gc, Workers: 2}
		for s := range n {
			at := 20 + 10*float64(s)
			sc.Shots = append(sc.Shots, Shot{SourceCoords: []float64{at, at}})
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		if _, err := RunShots("acoustic", cfg, sc); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	survey(2) // warm process-wide memos
	// Medians of interleaved repetitions: a worker that the scheduler
	// starts only after its peer has taken every shot builds no solver,
	// and a reduction that lags keeps an extra gradient copy alive.
	var twos, sixes []float64
	for range 5 {
		twos = append(twos, float64(survey(2)))
		sixes = append(sixes, float64(survey(6)))
	}
	slices.Sort(twos)
	slices.Sort(sixes)
	two, six := twos[2], sixes[2]
	marginal := (six - two) / 4
	buffer := 4 * len(u.Buf(0).Data)
	t.Logf("2 shots %.0f B, 6 shots %.0f B (medians of 5): %.0f B per marginal shot; one wavefield buffer %d B",
		two, six, marginal, buffer)
	if marginal >= float64(buffer) {
		t.Errorf("a marginal shot allocates %.0f B, want less than one wavefield buffer (%d B)", marginal, buffer)
	}
}

// scatterOwned copies a field's owned DOMAIN at time buffer t into the
// dense row-major global array at the field's origin. Under a
// decomposition every rank owns a disjoint box, so concurrent scatters
// from the ranks of one world assemble the global array without overlap.
func scatterOwned(dst []float32, gshape []int, f *field.Function, t int) {
	domainRows(f, t, func(idx []int, row []float32) {
		off := 0
		for d, i := range idx {
			off = off*gshape[d] + f.Origin[d] + i
		}
		copy(dst[off:off+len(row)], row)
	})
}

// misfitOf is the reference least-squares data misfit
// 0.5*sum(residual^2) with residual = synthetics - observed (or the
// synthetics themselves without observed data), summed apart from the
// solver's own GradientResult.Misfit.
func misfitOf(syn [][]float64, obs [][]float64) float64 {
	sum := 0.0
	for t := range syn {
		for r := range syn[t] {
			d := syn[t][r]
			if obs != nil {
				d -= obs[t][r]
			}
			sum += d * d
		}
	}
	return 0.5 * sum
}
