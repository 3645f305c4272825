package propagators

import (
	"fmt"
	"math"
	goruntime "runtime"
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

// The checkpointed gradient pipeline composes with tiling: identical
// gradient norm, dot-product identity and adjoint source traces versus k=1
// on 4 ranks, at checkpoint intervals 3, 5 and nt (the last recomputes
// nothing). The adjoint runs as one reverse Apply, so it tiles too (its
// effective interval is at least 2 at k=4) and its k=4 tiles recompute
// ghost shells: it updates more points than at k=1.
func TestTimeTile_GradientBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient tiling differential skipped in -short")
	}
	shape := []int{24, 24}
	const so, nt = 4, 12
	run := func(k, interval int) *GradientResult {
		var res0 *GradientResult
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
				res0 = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res0
	}
	ref := run(1, 3)
	sameTraces := func(label string, traces []float64) {
		for i := range ref.SrcTraces {
			if traces[i] != ref.SrcTraces[i] {
				t.Fatalf("%s: adjoint source trace %d diverges: %v vs %v", label, i, traces[i], ref.SrcTraces[i])
			}
		}
	}
	for _, interval := range []int{3, 5, nt} {
		if interval != 3 {
			res := run(1, interval)
			if res.GradNorm != ref.GradNorm || res.RelErr != ref.RelErr {
				t.Errorf("interval %d: k=1 norm %v rel-err %v != interval-3 norm %v rel-err %v",
					interval, res.GradNorm, res.RelErr, ref.GradNorm, ref.RelErr)
			}
			sameTraces(fmt.Sprintf("interval %d k=1", interval), res.SrcTraces)
		}
		res := run(4, interval)
		if res.GradNorm != ref.GradNorm {
			t.Errorf("interval %d: gradient k=4 norm %v != k=1 norm %v", interval, res.GradNorm, ref.GradNorm)
		}
		if res.RelErr != ref.RelErr {
			t.Errorf("interval %d: gradient k=4 rel-err %v != k=1 rel-err %v", interval, res.RelErr, ref.RelErr)
		}
		sameTraces(fmt.Sprintf("interval %d k=4", interval), res.SrcTraces)
		if res.AdjointConfig.TimeTile < 2 {
			t.Errorf("interval %d: adjoint operator did not tile: interval %d", interval, res.AdjointConfig.TimeTile)
		}
		if points, refPoints := res.AdjointPerf.PointsUpdated, ref.AdjointPerf.PointsUpdated; points <= refPoints {
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

// A time-tiled operator allocates each field once, at the depth it
// provisions: on a 2-rank full-mode k = 4 acoustic world, Build,
// NewOperator and a one-step Apply allocate at most 1.1x the bytes the
// fields hold afterwards, not the base allocation plus the grown one. The
// run gives the k = 1 norm bits (the multi-step bits are
// TestTimeTile_DMPBitExactAllModelsAllModes').
func TestTimeTile_FieldsAllocatedOnceAtProvisionedDepth(t *testing.T) {
	shape := []int{2048, 1024}
	run := func(k int) (norm float64, allocated, held uint64) {
		held2 := make([]uint64, 2)
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		err := mpi.RunRanks(2, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, "acoustic", serialCfg(shape, 8), halo.ModeFull, nil)
			if err != nil {
				return err
			}
			res, err := Run(m, ctx, RunConfig{NT: 1, Exec: Exec{TimeTile: k, Workers: 1, Autotune: core.AutotuneOff}})
			if err != nil {
				return err
			}
			res.Op.Close()
			if eff := res.Op.TimeTile(); eff != k {
				return fmt.Errorf("effective interval %d, want %d", eff, k)
			}
			for _, f := range m.Fields {
				for bi := range f.Bufs {
					held2[c.Rank()] += uint64(4 * len(f.Bufs[bi].Data))
				}
			}
			if c.Rank() == 0 {
				norm = res.Norm
			}
			return nil
		})
		goruntime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return norm, m1.TotalAlloc - m0.TotalAlloc, held2[0] + held2[1]
	}
	ref, _, _ := run(1)
	norm, allocated, held := run(4)
	t.Logf("k=4: %d bytes allocated, fields hold %d (%.3fx)", allocated, held, float64(allocated)/float64(held))
	if norm != ref {
		t.Errorf("k=4 norm %v != k=1 norm %v", norm, ref)
	}
	if float64(allocated) > 1.1*float64(held) {
		t.Errorf("k=4 allocated %d bytes, more than 1.1x the %d its fields hold", allocated, held)
	}
}
