package propagators

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"devigo/internal/core"
	"devigo/internal/ddata"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/perfmodel"
)

// The time-tiling differential suite: exchange-interval k > 1 must be
// bit-exact versus k=1 for every scenario, halo mode and engine, forward
// and reverse, because the redundant ghost-shell recompute evaluates the
// identical per-point expressions on identical data. Norm and receiver
// traces are compared with ==.

// ttRun executes one 4-rank (2x2) run and returns the rank-0 norm,
// receiver traces and the effective exchange interval.
func ttRun(t *testing.T, model string, shape []int, mode halo.Mode, engine string, so, nt, k int) (float64, [][]float64, int) {
	t.Helper()
	res := rank0(t, model, shape, []int{2, 2}, mode, so,
		RunConfig{NT: nt, NReceivers: 4, Exec: Exec{TimeTile: k, Engine: engine, Workers: 2}})
	return res.Norm, res.Receivers, res.Op.TimeTile()
}

func assertSameTraces(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	for it := range a {
		for r := range a[it] {
			if a[it][r] != b[it][r] {
				t.Fatalf("%s: trace (%d,%d) diverges: %v vs %v", label, it, r, a[it][r], b[it][r])
			}
		}
	}
}

// Every scenario x halo mode x k in {2,4,8} must match k=1 bit-for-bit.
// TTI falls back to k=1 (CIRE scratch) and must still be exact; the
// k=8 elastic/viscoelastic runs exercise the chunk-feasibility clamp.
func TestTimeTile_DMPBitExactAllModelsAllModes(t *testing.T) {
	shape := []int{24, 24}
	so, nt := 4, 16
	ks := []int{2, 4, 8}
	if testing.Short() {
		ks = []int{2, 4}
	}
	for _, model := range ModelNames() {
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			t.Run(model+"/"+mode.String(), func(t *testing.T) {
				refNorm, refTraces, _ := ttRun(t, model, shape, mode, core.EngineBytecode, so, nt, 1)
				for _, k := range ks {
					norm, traces, eff := ttRun(t, model, shape, mode, core.EngineBytecode, so, nt, k)
					if model == "tti" && eff != 1 {
						t.Errorf("TTI (CIRE scratch) must fall back to k=1, got %d", eff)
					}
					if norm != refNorm {
						t.Errorf("k=%d (eff %d): norm %v != k=1 norm %v", k, eff, norm, refNorm)
					}
					assertSameTraces(t, model, refTraces, traces)
				}
			})
		}
	}
}

// Both engines agree under tiling (and with each other's k=1 results).
func TestTimeTile_EnginesBitExact(t *testing.T) {
	shape := []int{24, 24}
	so, nt := 4, 16
	refNorm, refTraces, _ := ttRun(t, "acoustic", shape, halo.ModeDiagonal, core.EngineInterpreter, so, nt, 1)
	for _, engine := range []string{core.EngineBytecode, core.EngineInterpreter} {
		norm, traces, eff := ttRun(t, "acoustic", shape, halo.ModeDiagonal, engine, so, nt, 4)
		if eff != 4 {
			t.Errorf("%s: effective interval %d, want 4", engine, eff)
		}
		if norm != refNorm {
			t.Errorf("%s k=4: norm %v != interpreter k=1 norm %v", engine, norm, refNorm)
		}
		assertSameTraces(t, engine, refTraces, traces)
	}
}

// Serial contexts ignore the exchange interval (nothing to avoid).
func TestTimeTile_SerialFallsBack(t *testing.T) {
	m, err := Build("acoustic", serialCfg([]int{24, 24}, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{NT: 8, Exec: Exec{TimeTile: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Op.TimeTile() != 1 {
		t.Errorf("serial effective interval = %d, want 1", res.Op.TimeTile())
	}
	if res.Op.Config().TimeTile != 1 {
		t.Errorf("serial config interval = %d, want 1", res.Op.Config().TimeTile)
	}
}

// The adjoint (reverse-time) sweep tiles too: RunAdjoint with k=4 must
// reproduce the k=1 source traces and final norm bit-for-bit on 4 ranks.
func TestTimeTile_AdjointBitExact(t *testing.T) {
	shape := []int{24, 24}
	const so, nt = 4, 16
	run := func(k int) (float64, []float64) {
		var norm float64
		var traces []float64
		err := mpi.RunRanks(4, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, "acoustic", serialCfg(shape, so), halo.ModeDiagonal, []int{2, 2})
			if err != nil {
				return err
			}
			fres, err := Run(m, ctx, RunConfig{NT: nt, NReceivers: 4, Exec: Exec{TimeTile: k}})
			if err != nil {
				return err
			}
			ares, err := RunAdjoint(m, ctx, AdjointConfig{
				NT: nt, RecCoords: ReceiverLine(m.Grid, 4), RecData: fres.Receivers, Exec: Exec{TimeTile: k},
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				norm, traces = ares.Norm, ares.SrcTraces
				if k > 1 && ares.Op.TimeTile() < 2 {
					t.Errorf("adjoint operator did not tile: interval %d", ares.Op.TimeTile())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return norm, traces
	}
	refNorm, refTraces := run(1)
	norm, traces := run(4)
	if norm != refNorm {
		t.Errorf("adjoint k=4 norm %v != k=1 norm %v", norm, refNorm)
	}
	for i := range refTraces {
		if traces[i] != refTraces[i] {
			t.Fatalf("adjoint trace %d diverges: %v vs %v", i, traces[i], refTraces[i])
		}
	}
}

// The checkpointed gradient pipeline composes with tiling: identical
// gradient norm and dot-product identity versus k=1 on 4 ranks, at
// checkpoint intervals 3, 5 and nt (the last recomputes nothing). The
// adjoint runs as one reverse Apply, so its k=4 tiles recompute ghost
// shells: it updates more points than at k=1.
func TestTimeTile_GradientBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient tiling differential skipped in -short")
	}
	shape := []int{24, 24}
	const so, nt = 4, 12
	run := func(k, interval int) (float64, float64, int64) {
		var gnorm, relErr float64
		var adjPoints int64
		err := mpi.RunRanks(4, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, "acoustic", serialCfg(shape, so), halo.ModeDiagonal, []int{2, 2})
			if err != nil {
				return err
			}
			res, err := RunGradient(m, ctx, GradientConfig{NT: nt, NReceivers: 4, CheckpointInterval: interval, Exec: Exec{TimeTile: k}})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				gnorm, relErr, adjPoints = res.GradNorm, res.RelErr, res.AdjointPerf.PointsUpdated
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return gnorm, relErr, adjPoints
	}
	refNorm, refErr, refPoints := run(1, 3)
	for _, interval := range []int{3, 5, nt} {
		if interval != 3 {
			if gnorm, relErr, _ := run(1, interval); gnorm != refNorm || relErr != refErr {
				t.Errorf("interval %d: k=1 norm %v rel-err %v != interval-3 norm %v rel-err %v",
					interval, gnorm, relErr, refNorm, refErr)
			}
		}
		gnorm, relErr, points := run(4, interval)
		if gnorm != refNorm {
			t.Errorf("interval %d: gradient k=4 norm %v != k=1 norm %v", interval, gnorm, refNorm)
		}
		if relErr != refErr {
			t.Errorf("interval %d: gradient k=4 rel-err %v != k=1 rel-err %v", interval, relErr, refErr)
		}
		if points <= refPoints {
			t.Errorf("interval %d: adjoint updated %d points at k=4, %d at k=1: the reverse sweep recomputed no shell",
				interval, points, refPoints)
		}
	}
}

// DEVIGO_TIME_TILE reaches the operator with zero code changes.
func TestTimeTile_EnvVar(t *testing.T) {
	t.Setenv(core.TimeTileEnvVar, "4")
	norm, _, eff := ttRun(t, "acoustic", []int{24, 24}, halo.ModeDiagonal, core.EngineBytecode, 4, 12, 0)
	if eff != 4 {
		t.Errorf("effective interval via env = %d, want 4", eff)
	}
	t.Setenv(core.TimeTileEnvVar, "")
	refNorm, _, _ := ttRun(t, "acoustic", []int{24, 24}, halo.ModeDiagonal, core.EngineBytecode, 4, 12, 1)
	if norm != refNorm {
		t.Errorf("env-tiled norm %v != k=1 norm %v", norm, refNorm)
	}
}

// On a latency-dominated configuration (tiny per-rank boxes) the cost
// model must rank an exchange interval > 1 on top — the deterministic
// half of the "autotuner exploits communication avoidance" claim — and
// the search-tuned run must stay bit-exact.
func TestTimeTile_AutotuneSelectsDeepInterval(t *testing.T) {
	shape := []int{32, 32}
	const so, nt = 4, 24
	refNorm, refTraces, _ := ttRun(t, "acoustic", shape, halo.ModeDiagonal, core.EngineBytecode, so, nt, 1)
	res := rank0(t, "acoustic", shape, []int{2, 2}, halo.ModeDiagonal, so,
		RunConfig{NT: nt, NReceivers: 4, Exec: Exec{TimeTile: 8, Autotune: core.AutotuneSearch}})
	norm, traces, cfgEff := res.Norm, res.Receivers, res.Op.Config()
	if head := perfmodel.Plan(perfmodel.DefaultHost(), res.Op.Profile())[0]; head.TimeTile < 2 {
		t.Errorf("the cost model ranks %s first on a latency-dominated config, want an interval >= 2", head)
	}
	if norm != refNorm {
		t.Errorf("autotuned norm %v != k=1 norm %v (%+v)", norm, refNorm, cfgEff)
	}
	assertSameTraces(t, "autotune", refTraces, traces)
}

// Real MPI accounting: widening the exchange interval must amortize the
// halo messages. The two-stream elastic schedule reaches ~1/k (<= 0.30 of
// the k=1 count at k=4, <= 0.20 at k=8); acoustic pays a once-per-run
// hoisted parameter exchange k=1 never does, so it only has to drop at
// k=4, and every model must at least halve by k=8. Receivers are disabled
// so the counters see only halo traffic plus the one final norm reduction.
func TestTimeTile_MessageCountDrops(t *testing.T) {
	shape := []int{48, 48}
	const so, nt = 4, 64
	count := func(model string, k int) (int, float64) {
		var norm float64
		sent := make([]int, 4)
		err := mpi.RunRanks(4, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, model, serialCfg(shape, so), halo.ModeDiagonal, []int{2, 2})
			if err != nil {
				return err
			}
			res, err := Run(m, ctx, RunConfig{NT: nt, Exec: Exec{TimeTile: k}})
			if err != nil {
				return err
			}
			sent[c.Rank()] = c.Transport().Stats().MsgsSent
			if c.Rank() == 0 {
				norm = res.Norm
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs := 0
		for _, n := range sent {
			msgs += n
		}
		return msgs, norm
	}
	for _, tc := range []struct {
		model    string
		maxRatio map[int]float64 // by k
	}{
		{"elastic", map[int]float64{4: 0.30, 8: 0.20}},
		{"acoustic", map[int]float64{4: 0.99, 8: 0.5}},
	} {
		m1, n1 := count(tc.model, 1)
		for _, k := range []int{4, 8} {
			mk, nk := count(tc.model, k)
			if n1 != nk {
				t.Fatalf("%s k=%d: norms diverge while counting messages: %v vs %v", tc.model, k, n1, nk)
			}
			ratio := float64(mk) / float64(m1)
			if ratio > tc.maxRatio[k] {
				t.Errorf("%s k=%d sent %d messages vs %d at k=1: ratio %.3f, want <= %.2f",
					tc.model, k, mk, m1, ratio, tc.maxRatio[k])
			}
			t.Logf("%s messages: k=1 %d, k=%d %d (ratio %.3f)", tc.model, m1, k, mk, ratio)
		}
	}
}

// A traced tiled run peels each sweep's ghost shell into its own passes
// for the trace; the untraced run sweeps it with the owned box. Both must
// leave every time buffer of the wavefield with the same bits (acoustic
// so-8, 2 ranks, full, k=4, two pool workers).
func TestTracedTiledRunKeepsBits(t *testing.T) {
	run := func(traced bool) [][]float32 {
		if traced {
			obs.Reset()
			obs.EnableTracing()
			defer func() { obs.DisableAll(); obs.Reset() }()
		}
		var bufs [][]float32
		err := mpi.RunRanks(2, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, "acoustic", serialCfg([]int{48, 48}, 8), halo.ModeFull, []int{2, 1})
			if err != nil {
				return err
			}
			res, err := Run(m, ctx, RunConfig{NT: 13, Exec: Exec{TimeTile: 4, Workers: 2}})
			if err != nil {
				return err
			}
			defer res.Op.Close()
			if k := res.Op.TimeTile(); k != 4 {
				return fmt.Errorf("effective interval %d, want 4", k)
			}
			u := m.Fields[m.WaveFields[0]]
			arr := ddata.New(u, ctx.Decomp, c.Rank())
			for b := range u.Bufs {
				if got := arr.Gather(c, 0, b); c.Rank() == 0 {
					bufs = append(bufs, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bufs
	}
	want, got := run(false), run(true)
	if !slices.ContainsFunc(want[0], func(v float32) bool { return v != 0 }) {
		t.Fatal("the wavefield is still zero: the comparison would be vacuous")
	}
	for b := range want {
		for i := range want[b] {
			if math.Float32bits(got[b][i]) != math.Float32bits(want[b][i]) {
				t.Fatalf("buffer %d point %d: traced %v != untraced %v", b, i, got[b][i], want[b][i])
			}
		}
	}
}
