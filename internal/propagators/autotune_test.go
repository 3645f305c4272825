package propagators

import (
	"flag"
	"slices"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/perfmodel"
	"devigo/internal/runtime"
)

var autotuneTiming = flag.Bool("autotune-timing", false,
	"TestSearchAgainstExhaustiveSweep: also hold the search's pick within 15% of the exhaustive best")

// runAutotuned runs a serial acoustic scenario with the given autotune
// policy (or a forced fixed configuration when policy is "") and returns
// the final norm, receiver traces and the effective configuration.
func runAutotuned(t *testing.T, policy string, workers, nt int) (float64, [][]float64, core.EffectiveConfig) {
	t.Helper()
	m, err := Acoustic(serialCfg([]int{48, 48}, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{
		NT: nt, NReceivers: 4,
		Exec: Exec{Workers: workers, Autotune: policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Norm, res.Receivers, res.Op.Config()
}

// TestAutotuneInvariance is the bit-exactness guarantee the in-place
// tuner rests on: whatever configuration the autotuner settles on, the
// numerical results are identical to a fixed-configuration run.
func TestAutotuneInvariance(t *testing.T) {
	const nt = 24
	refNorm, refTraces, _ := runAutotuned(t, "", 1, nt)
	norm, traces, cfg := runAutotuned(t, core.AutotuneSearch, 0, nt)
	if cfg.Autotune != core.AutotuneSearch {
		t.Errorf("effective config reports policy %q", cfg.Autotune)
	}
	if norm != refNorm {
		t.Errorf("norm %v != fixed-config norm %v (chose %s/w%d/k%d)",
			norm, refNorm, cfg.Mode, cfg.Workers, cfg.TimeTile)
	}
	assertSameTraces(t, "search", refTraces, traces)
}

// TestSearchWithoutBudgetAdoptsPlanHead: with too few steps for a single
// trial the search adopts Plan's first entry, the cost model's top-ranked
// configuration. Workers is forced so the measured pool sync cost cannot
// reorder the plan between the tuner and this check.
func TestSearchWithoutBudgetAdoptsPlanHead(t *testing.T) {
	res := rank0(t, "acoustic", []int{32, 32}, []int{2, 2}, halo.ModeDiagonal, 4,
		RunConfig{NT: 2, NReceivers: 4, Exec: Exec{TimeTile: 8, Workers: 1, Autotune: core.AutotuneSearch}})
	got := res.Op.Config()
	head := perfmodel.Plan(perfmodel.DefaultHost(), res.Op.Profile())[0]
	if got.Autotune != core.AutotuneSearch || got.Mode != head.Mode.String() ||
		got.Workers != head.Workers || got.TimeTile != max(head.TimeTile, 1) {
		t.Errorf("search without a trial budget chose %+v, want the plan head %s", got, head)
	}
}

// TestAutotuneRespectsForcedKnobs pins Workers through Options and checks
// the tuner leaves it, and the constant tile height, alone.
func TestAutotuneRespectsForcedKnobs(t *testing.T) {
	_, _, cfg := runAutotuned(t, core.AutotuneSearch, 1, 16)
	if cfg.Workers != 1 || cfg.TileRows != runtime.TileRows {
		t.Errorf("forced workers=1 overridden: got w%d/t%d", cfg.Workers, cfg.TileRows)
	}
}

// TestAutotuneEnvVar drives the policy through DEVIGO_AUTOTUNE — the
// zero-user-code-changes path.
func TestAutotuneEnvVar(t *testing.T) {
	t.Setenv(core.AutotuneEnvVar, "search")
	_, _, cfg := runAutotuned(t, "", 0, 8)
	if cfg.Autotune != core.AutotuneSearch {
		t.Errorf("DEVIGO_AUTOTUNE=search not picked up: policy %q", cfg.Autotune)
	}
	t.Setenv(core.AutotuneEnvVar, "bogus")
	m, err := Acoustic(serialCfg([]int{32, 32}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, nil, RunConfig{NT: 2}); err == nil {
		t.Error("bogus DEVIGO_AUTOTUNE value must error")
	}
}

// TestHaloModesBitExactNorm is the tier-1 half of the model-vs-measured
// check: whichever halo mode the cost model ranks first, adopting it can
// never change results, because the three modes leave bit-identical norms
// on the 4-rank grid. The wall-clock half (the model's top choice measures
// within 35% of the exhaustive best) is a property of a quiet host — under
// sustained load the overlapped mode stays >35% behind however often it is
// sampled — so TestSearchAgainstExhaustiveSweep logs that ratio, and
// holds the search's own pick to its bound only under -args
// -autotune-timing, the run CI retries.
func TestHaloModesBitExactNorm(t *testing.T) {
	shape := []int{96, 96}
	const so, nt = 4, 12
	topo := []int{2, 2}
	ref, _ := runDMP(t, "acoustic", shape, topo, halo.ModeBasic, so, nt)
	for _, m := range []halo.Mode{halo.ModeDiagonal, halo.ModeFull} {
		if norm, _ := runDMP(t, "acoustic", shape, topo, m, so, nt); norm != ref {
			t.Errorf("mode %v norm %v != basic norm %v (modes must be bit-exact)", m, norm, ref)
		}
	}
}

// TestAutotuneDMPBitExactAndConsistent runs a 4-rank world with the
// search policy (which may retarget the halo mode mid-run on every rank)
// and checks the result is bit-identical to a fixed-mode run and that all
// ranks agree on the chosen configuration.
func TestAutotuneDMPBitExactAndConsistent(t *testing.T) {
	shape := []int{48, 48}
	const so, nt = 4, 20
	refNorm, _ := runDMP(t, "acoustic", shape, []int{2, 2}, halo.ModeDiagonal, so, nt)

	out, err := runOnRanks("acoustic", shape, []int{2, 2}, halo.ModeBasic, so,
		RunConfig{NT: nt, NReceivers: 4, Exec: Exec{Autotune: core.AutotuneSearch}})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]core.EffectiveConfig, 4)
	for r, res := range out {
		cfgs[r] = res.Op.Config()
	}
	norm := out[0].Norm
	for r := 1; r < 4; r++ {
		if cfgs[r] != cfgs[0] {
			t.Fatalf("rank %d chose %+v, rank 0 chose %+v", r, cfgs[r], cfgs[0])
		}
	}
	if norm != refNorm {
		t.Errorf("autotuned DMP norm %v != fixed-mode norm %v (chose %+v)", norm, refNorm, cfgs[0])
	}
}

// TestGradientHonoursAutotunePolicy: a gradient's recompute and imaging
// Applies take the configured policy too, so an explicit "off" beats
// DEVIGO_AUTOTUNE on every operator of the gradient — no warmup, no
// trial, no decision.
func TestGradientHonoursAutotunePolicy(t *testing.T) {
	t.Setenv(core.AutotuneEnvVar, core.AutotuneSearch)
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	obs.Reset()
	m, err := Acoustic(serialCfg([]int{48, 48}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGradient(m, nil, GradientConfig{NT: 64, NReceivers: 4, CheckpointInterval: 8,
		Exec: Exec{Autotune: core.AutotuneOff}}); err != nil {
		t.Fatal(err)
	}
	snap := obs.Snapshot()
	if snap.Total.WarmupSteps != 0 || snap.Total.TrialSteps != 0 || len(snap.Decisions) != 0 {
		t.Errorf("Autotune off under DEVIGO_AUTOTUNE=search: %d warmup steps, %d trial steps, %d decisions; want none",
			snap.Total.WarmupSteps, snap.Total.TrialSteps, len(snap.Decisions))
	}
}

// sweepRun is one run of TestSearchAgainstExhaustiveSweep: the slowest
// rank's compute + halo seconds, the norm and the configuration the
// operator ran.
type sweepRun struct {
	seconds float64
	norm    float64
	eff     core.EffectiveConfig
}

// runSweep runs acoustic over topo (nil is serial), starting in mode.
func runSweep(t *testing.T, shape, topo []int, mode halo.Mode, so int, rc RunConfig) sweepRun {
	t.Helper()
	out, err := runOnRanks("acoustic", shape, topo, mode, so, rc)
	if err != nil {
		t.Fatal(err)
	}
	r := sweepRun{norm: out[0].Norm, eff: out[0].Op.Config()}
	for _, res := range out {
		r.seconds = max(r.seconds, res.Perf.ComputeSeconds+res.Perf.HaloSeconds)
	}
	return r
}

// rank0Profile compiles a model's operator over topo (nil is serial) with
// opts, steps it not at all, and returns rank 0's profile: the one the
// tuner plans over.
func rank0Profile(t *testing.T, name string, shape, topo []int, mode halo.Mode, so int, opts *core.Options) perfmodel.OpProfile {
	t.Helper()
	ranks := 1
	for _, n := range topo {
		ranks *= n
	}
	var prof perfmodel.OpProfile
	err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
		m, ctx, err := OnRank(c, name, serialCfg(shape, so), mode, topo)
		if err != nil {
			return err
		}
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, opts)
		if err != nil {
			return err
		}
		defer op.Close()
		if c.Rank() == 0 {
			prof = op.Profile()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestSearchAgainstExhaustiveSweep times every configuration the tuner
// plans over — Candidates of the operator's profile, the k axis pinned to
// 1 — best of three runs each on the slowest rank's compute + halo
// seconds, then lets the search policy choose: acoustic 128² so-4 for 24
// steps, serially and on a 4-rank world that starts in basic. The hard
// half holds on any host: every run leaves the same norm bits, the search
// picks one of the candidates, and that candidate's swept time is no
// better than the best (ratio_vs_best ≥ 1). Each scenario logs the pick,
// the best and the cost model's Plan[0] against the best. The timing half
// — the pick within 15% of the best — is a property of a quiet host, so
// the timing subtest holds it only under -args -autotune-timing, printing
// one verdict line per scenario; CI retries a run whose one failing
// subtest is timing.
func TestSearchAgainstExhaustiveSweep(t *testing.T) {
	const so, nt, reps, bound = 4, 24, 3, 1.15
	shape := []int{128, 128}
	scenarios := []struct {
		name string
		topo []int     // nil is serial
		mode halo.Mode // the search's starting mode; the sweep sets each candidate's
	}{
		{"acoustic", nil, halo.ModeNone},
		{"acoustic-dmp4", []int{2, 2}, halo.ModeBasic},
	}
	ratios := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// TimeTile is pinned to 1 so a stray DEVIGO_TIME_TILE cannot
			// open the k axis.
			prof := rank0Profile(t, "acoustic", shape, sc.topo, sc.mode, so, &core.Options{TimeTile: 1})
			cands := perfmodel.Candidates(prof)
			swept := make([]sweepRun, len(cands))
			var ref float64
			for j, c := range cands {
				rc := RunConfig{NT: nt, NReceivers: 4, Exec: Exec{
					Workers: c.Workers, TimeTile: max(c.TimeTile, 1), Autotune: core.AutotuneOff}}
				for rep := 0; rep < reps; rep++ {
					r := runSweep(t, shape, sc.topo, c.Mode, so, rc)
					if j == 0 && rep == 0 {
						ref = r.norm
					} else if r.norm != ref {
						t.Errorf("%s run %d: norm %v != %v (every configuration must leave the same bits)", c, rep, r.norm, ref)
					}
					if rep == 0 || r.seconds < swept[j].seconds {
						swept[j] = r
					}
				}
			}
			best := 0
			for j := range swept {
				if swept[j].seconds < swept[best].seconds {
					best = j
				}
			}
			search := runSweep(t, shape, sc.topo, sc.mode, so,
				RunConfig{NT: nt, NReceivers: 4, Exec: Exec{TimeTile: 1, Autotune: core.AutotuneSearch}})
			if search.norm != ref {
				t.Errorf("search: norm %v != swept norm %v", search.norm, ref)
			}
			eff := search.eff
			chosen := slices.IndexFunc(cands, func(c perfmodel.ExecConfig) bool {
				return c.Mode.String() == eff.Mode && c.Workers == eff.Workers && max(c.TimeTile, 1) == eff.TimeTile
			})
			if chosen < 0 {
				t.Fatalf("search chose %s/w%d/k%d, outside the %d swept candidates",
					eff.Mode, eff.Workers, eff.TimeTile, len(cands))
			}
			plan0 := perfmodel.Plan(perfmodel.DefaultHost(), prof)[0]
			head := slices.Index(cands, plan0)
			ratio := swept[chosen].seconds / swept[best].seconds
			if !(ratio >= 1) {
				t.Fatalf("search pick %s: ratio_vs_best %v, want ≥ 1", cands[chosen], ratio)
			}
			ratios[i] = ratio
			t.Logf("%s: search chose %s %.4fs, best %s %.4fs: ratio_vs_best %.2f; Plan[0] %s: %.2f",
				sc.name, cands[chosen], swept[chosen].seconds, cands[best], swept[best].seconds, ratio,
				plan0, swept[head].seconds/swept[best].seconds)
		})
	}
	t.Run("timing", func(t *testing.T) {
		if !*autotuneTiming {
			t.Skip("the search's pick against the best is held only under -args -autotune-timing")
		}
		for i, sc := range scenarios {
			if ratios[i] == 0 {
				continue // the scenario's hard half failed
			}
			t.Logf("autotune-timing %s: ratio_vs_best %.2f, bound %.2f", sc.name, ratios[i], bound)
			if ratios[i] > bound {
				t.Errorf("%s: the search's pick took %.2f× the exhaustive best, want ≤ %.2f", sc.name, ratios[i], bound)
			}
		}
	})
}
