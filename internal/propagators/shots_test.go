package propagators

import (
	"strings"
	"testing"

	"devigo/internal/core"
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

// TestRunShotsBitExactSerial: the serial-per-shot service must reproduce
// the explicit sequential loop bit for bit — for both engines, with and
// without time tiling, at every worker count, cache on or off.
func TestRunShotsBitExactSerial(t *testing.T) {
	for _, engine := range engines() {
		for _, k := range []int{1, 4} {
			t.Run(engine+"/k="+string(rune('0'+k)), func(t *testing.T) {
				cfg := surveyConfig()
				gc := surveyGradient()
				gc.Engine = engine
				gc.TimeTile = k
				want, wantMisfits := sequentialStack(t, cfg, gc, surveyShots())
				for _, workers := range []int{1, 3} {
					res, err := RunShots("acoustic", cfg, ShotsConfig{
						Gradient: gc, Shots: surveyShots(),
						Workers: workers, Cache: opcache.New(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Workers != workers {
						t.Errorf("workers=%d: effective pool %d", workers, res.Workers)
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
	}
}

// TestRunShotsBitExactDMP: per-shot 4-rank worlds. The cached, 2-workers
// service must match the uncached 1-worker run (a sequential compile-per-
// shot loop over the same worlds) bit for bit.
func TestRunShotsBitExactDMP(t *testing.T) {
	for _, engine := range engines() {
		for _, k := range []int{1, 4} {
			t.Run(engine+"/k="+string(rune('0'+k)), func(t *testing.T) {
				cfg := surveyConfig()
				gc := surveyGradient()
				gc.Engine = engine
				gc.TimeTile = k
				t.Setenv(opcache.EnvVar, "off")
				base, err := RunShots("acoustic", cfg, ShotsConfig{
					Gradient: gc, Shots: surveyShots(),
					Workers: 1, Ranks: 4, Mode: "diag",
				})
				if err != nil {
					t.Fatal(err)
				}
				if base.CacheStats.Misses != 0 {
					t.Fatalf("cache disabled but stats = %+v", base.CacheStats)
				}
				res, err := RunShots("acoustic", cfg, ShotsConfig{
					Gradient: gc, Shots: surveyShots(),
					Workers: 2, Ranks: 4, Mode: "diag", Cache: opcache.New(),
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range base.Gradient {
					if res.Gradient[i] != base.Gradient[i] {
						t.Fatalf("cached 2-worker stack diverges from sequential at %d: %v vs %v",
							i, res.Gradient[i], base.Gradient[i])
					}
				}
				if res.GradNorm != base.GradNorm || res.Misfit != base.Misfit {
					t.Errorf("aggregates diverge: norm %v vs %v, misfit %v vs %v",
						res.GradNorm, base.GradNorm, res.Misfit, base.Misfit)
				}
				// And the 4-rank stack must equal the serial-shot stack: the
				// imaging kernel computes identical per-point values on any
				// decomposition.
				serial, _ := sequentialStack(t, cfg, gc, surveyShots())
				for i := range serial {
					if res.Gradient[i] != serial[i] {
						t.Fatalf("4-rank stack diverges from serial at %d: %v vs %v",
							i, res.Gradient[i], serial[i])
					}
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
// level one past the final segment's window (ensureLevels' edge).
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
		g, w := got.Gradient.Bufs[0].Data, want.Gradient.Bufs[0].Data
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
	res, err := forward(m, nil, op, srcs, &rc, rc.NT, m.CriticalDt)
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
// arithmetic: a survey of N shots compiles each of the three gradient
// schedules (forward, adjoint, imaging) exactly once — 3 misses, 3(N-1)
// hits, hit rate (N-1)/N — at any worker count, and the obs counters agree.
func TestRunShotsCacheAccounting(t *testing.T) {
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	obs.Reset()

	shots := append(surveyShots(), Shot{SourceCoords: []float64{18, 6}})
	n := len(shots)
	cache := opcache.New()
	res, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: surveyGradient(), Shots: shots, Workers: 2, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	const uniqueSchedules = 3
	st := res.CacheStats
	if st.Misses != uniqueSchedules {
		t.Errorf("misses = %d, want %d (one per unique schedule)", st.Misses, uniqueSchedules)
	}
	if want := int64(uniqueSchedules * (n - 1)); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
	if want := float64(n-1) / float64(n); st.HitRate() != want {
		t.Errorf("hit rate = %v, want (N-1)/N = %v", st.HitRate(), want)
	}

	total := obs.Snapshot().Total
	if total.OpCompiles != uniqueSchedules {
		t.Errorf("obs compile counter = %d, want %d", total.OpCompiles, uniqueSchedules)
	}
	if total.OpCacheMisses != uniqueSchedules || total.OpCacheHits != int64(uniqueSchedules*(n-1)) {
		t.Errorf("obs cache counters = %d miss / %d hit, want %d / %d",
			total.OpCacheMisses, total.OpCacheHits, uniqueSchedules, uniqueSchedules*(n-1))
	}
	if total.ShotsDone != int64(n) {
		t.Errorf("obs shots-done = %d, want %d", total.ShotsDone, n)
	}
	if total.ShotWorkers != 2 {
		t.Errorf("obs shot-workers gauge = %d, want 2", total.ShotWorkers)
	}
	if total.CkptSaves <= 0 || total.CkptRestores <= 0 {
		t.Errorf("obs checkpoint counters = %d saves / %d restores, want both > 0 (every shot checkpoints its forward run)",
			total.CkptSaves, total.CkptRestores)
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
		Gradient: gc, Shots: surveyShots(), Ranks: 4, Mode: "hexagonal",
	}); err == nil {
		t.Error("unknown halo mode accepted")
	}
	t.Setenv(opcache.EnvVar, "sometimes")
	if _, err := RunShots("acoustic", cfg, ShotsConfig{Gradient: gc, Shots: surveyShots()}); err == nil {
		t.Errorf("invalid $%s accepted", opcache.EnvVar)
	}
}

// TestRunShotsRace exercises the scheduler/reducer/world machinery under
// -race via the usual short suite; the DMP variant runs concurrent worlds.
func TestRunShotsRace(t *testing.T) {
	if testing.Short() {
		// Keep the -short race pass cheap: serial shots, 3 workers.
		_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
			Gradient: surveyGradient(), Shots: surveyShots(), Workers: 3, Cache: opcache.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	_, err := RunShots("acoustic", surveyConfig(), ShotsConfig{
		Gradient: surveyGradient(), Shots: surveyShots(), Workers: 3, Ranks: 4, Cache: opcache.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunShotsRaceEngines is the per-engine arm of the race pass, for the
// default engine and the one it replaced (every default-engine shot test
// runs native, so bytecode's concurrent rebind is covered here only):
// concurrent shot workers share one operator cache, so the singleflight
// compile, the per-shot Rebind of the cached kernels (program and chain
// template are shared, the field bindings are per-shot) and the row
// executors' worker pools all run under the race detector at once.
func TestRunShotsRaceEngines(t *testing.T) {
	for _, engine := range []string{core.EngineBytecode, core.EngineNative} {
		t.Run(engine, func(t *testing.T) {
			gc := surveyGradient()
			gc.Engine = engine
			cache := opcache.New()
			// Two passes over the same cache: the first compiles (singleflight
			// under contention), the second rebinds cache hits concurrently.
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
// complete with the per-rank team clamped — and, because results are
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
