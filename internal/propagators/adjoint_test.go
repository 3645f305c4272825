package propagators

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
)

// The adjoint acceptance gate: the discrete dot-product identity
// <Fq, Fq> = <q, F'Fq> must hold to 1e-8 relative error for the acoustic
// model — serially and on 4 ranks under every halo mode, with all three
// execution engines. RunDotTest's configuration makes every float op
// exact, so a correct adjoint yields an *exactly* zero gap and any
// structural error yields O(1); the gate therefore certifies the
// transpose itself rather than measuring float32 rounding noise.

const dotTol = 1e-8

func engines() []string {
	return []string{core.EngineBytecode, core.EngineInterpreter, core.EngineNative}
}

func TestAdjointDotProduct_Serial(t *testing.T) {
	for _, engine := range engines() {
		t.Run(engine, func(t *testing.T) {
			res, err := RunDotTest(nil, halo.ModeNone, engine)
			if err != nil {
				t.Fatal(err)
			}
			if res.DotForward == 0 {
				t.Fatal("degenerate dot test: forward data is all zero")
			}
			checkRecomputes(t, res)
			if res.RelErr > dotTol {
				t.Errorf("dot-product identity violated: <Fq,Fq>=%v <q,F'Fq>=%v rel=%v",
					res.DotForward, res.DotAdjoint, res.RelErr)
			}
		})
	}
}

func TestAdjointDotProduct_DMPAllModes(t *testing.T) {
	// The serial result is the cross-check baseline: the certification
	// config is arithmetically exact, so every mode/engine/ranking must
	// reproduce the identical dot products bit for bit.
	base, err := RunDotTest(nil, halo.ModeNone, core.EngineBytecode)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range engines() {
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			t.Run(engine+"/"+mode.String(), func(t *testing.T) {
				err := mpi.RunRanks(4, func(c *mpi.Comm) error {
					res, err := RunDotTest(c, mode, engine)
					if err != nil {
						return err
					}
					if res.RelErr > dotTol {
						t.Errorf("rank %d: identity violated: %v vs %v (rel %v)",
							c.Rank(), res.DotForward, res.DotAdjoint, res.RelErr)
					}
					checkRecomputes(t, res)
					if res.DotForward != base.DotForward || res.DotAdjoint != base.DotAdjoint {
						t.Errorf("rank %d: dots diverge from serial: (%v,%v) vs (%v,%v)",
							c.Rank(), res.DotForward, res.DotAdjoint, base.DotForward, base.DotAdjoint)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// checkRecomputes fails a dot test whose reverse sweep re-integrated no
// step: one that certifies the forward pass's cached tail alone, never a
// restore and a recompute.
func checkRecomputes(t *testing.T, res *GradientResult) {
	t.Helper()
	if cs := res.Checkpoint; cs.RecomputedSteps == 0 {
		t.Errorf("the dot test took %d snapshots and recomputed no step", cs.Snapshots)
	}
}

// TestAdjointDotProduct_Realistic runs the identity in a production-like
// configuration — Ricker wavelet, absorbing boundary, 8th-order stencil,
// off-grid receivers — where float32 wavefield stores bound the
// achievable agreement. The tolerance reflects the dtype, not the
// operator: the certification config above is the tight gate.
func TestAdjointDotProduct_Realistic(t *testing.T) {
	for _, engine := range engines() {
		t.Run(engine, func(t *testing.T) {
			m, err := Acoustic(Config{Shape: []int{40, 40}, SpaceOrder: 8, NBL: 8, Velocity: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunGradient(m, nil, GradientConfig{
				NT: 40, ReceiverCoords: ReceiverLine(m.Grid, 6), Exec: Exec{Engine: engine},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.RelErr > 2e-5 {
				t.Errorf("realistic dot test: %v vs %v (rel %v)", res.DotForward, res.DotAdjoint, res.RelErr)
			}
			checkRecomputes(t, res)
			t.Logf("realistic config: <d,d>=%.6e <q,q'>=%.6e rel=%.2e", res.DotForward, res.DotAdjoint, res.RelErr)
		})
	}
}

// exactGradientConfig is RunDotTest's configuration at checkpoint
// interval k.
func exactGradientConfig(interval int) GradientConfig {
	gc := dotTestConfig()
	gc.CheckpointInterval = interval
	return gc
}

func exactAcoustic(t *testing.T) *Model {
	t.Helper()
	m, _, err := dotTestModel(nil, halo.ModeNone)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wantRecomputed is the number of forward steps the reverse sweep of an
// nt-step gradient at interval k re-integrates: from each snapshot s (the
// multiples of k below nt-k) up to level min(s+k, nt-k)-2, because the
// next snapshot's restore or the forward pass's cached tail already holds
// the two levels above it.
func wantRecomputed(nt, k int) (n int) {
	for s := 0; s < nt-k; s += k {
		n += max(min(s+k, nt-k)-2-s, 0)
	}
	return n
}

// TestGradientCheckpointInvariance is the checkpointing subsystem's
// acceptance gate: because snapshots capture raw buffers and segment
// recomputation replays the identical operator and injection schedule,
// the gradient must be bit-identical for every checkpoint interval —
// including one so large that nothing is recomputed.
func TestGradientCheckpointInvariance(t *testing.T) {
	grads := map[int][]float32{}
	stats := map[int]int{}
	for _, k := range []int{2, 3, 5, 100} {
		m := exactAcoustic(t)
		res, err := RunGradient(m, nil, exactGradientConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.RelErr > dotTol {
			t.Errorf("interval %d: dot identity violated: rel %v", k, res.RelErr)
		}
		if res.GradNorm == 0 {
			t.Errorf("interval %d: zero gradient", k)
		}
		grads[k] = append([]float32(nil), res.Gradient.Bufs[0].Data...)
		stats[k] = res.Checkpoint.RecomputedSteps
		// The forward pass snapshots only the multiples of k below its
		// last k steps, whose levels it caches.
		wantSnaps := (8 - 1) / k
		if res.Checkpoint.Snapshots != wantSnaps {
			t.Errorf("interval %d: %d snapshots, want %d", k, res.Checkpoint.Snapshots, wantSnaps)
		}
	}
	ref := grads[2]
	for _, k := range []int{3, 5, 100} {
		g := grads[k]
		for i := range ref {
			if g[i] != ref[i] {
				t.Fatalf("gradient diverges between intervals 2 and %d at %d: %v vs %v",
					k, i, ref[i], g[i])
			}
		}
	}
	// The forward pass caches the levels of its last k steps, so the
	// sweep re-integrates steps below them only, none at k >= nt.
	for k, rec := range stats {
		if want := wantRecomputed(8, k); rec != want {
			t.Errorf("interval %d recomputed %d steps, want %d", k, rec, want)
		}
	}
}

// TestGradientForwardTailNotRecomputed pins the recompute count the
// forward tail buys: for every interval up to past nt the reverse sweep
// re-integrates exactly wantRecomputed(nt, k) steps, each at most once,
// from (nt-1)/k snapshots (none among the last k steps, whose levels the
// forward pass caches), RecomputePerf times exactly those steps, and the
// gradient keeps the bits of interval 1.
func TestGradientForwardTailNotRecomputed(t *testing.T) {
	for _, nt := range []int{7, 8, 9, 12} {
		var base float64
		for k := 1; k <= nt+2; k++ {
			gc := exactGradientConfig(k)
			gc.NT = nt
			res, err := RunGradient(exactAcoustic(t), nil, gc)
			if err != nil {
				t.Fatalf("nt=%d k=%d: %v", nt, k, err)
			}
			if want := wantRecomputed(nt, k); res.Checkpoint.RecomputedSteps != want {
				t.Errorf("nt=%d k=%d: recomputed %d steps, want %d", nt, k, res.Checkpoint.RecomputedSteps, want)
			}
			if got := res.RecomputePerf.Timesteps; got != res.Checkpoint.RecomputedSteps {
				t.Errorf("nt=%d k=%d: RecomputePerf counts %d steps, the sweep recomputed %d", nt, k, got, res.Checkpoint.RecomputedSteps)
			}
			if got := res.ForwardPerf.Timesteps; got != nt {
				t.Errorf("nt=%d k=%d: ForwardPerf counts %d steps, want nt", nt, k, got)
			}
			if want := (nt - 1) / k; res.Checkpoint.Snapshots != want {
				t.Errorf("nt=%d k=%d: %d snapshots, want %d", nt, k, res.Checkpoint.Snapshots, want)
			}
			if k == 1 {
				base = res.GradNorm
			} else if res.GradNorm != base {
				t.Errorf("nt=%d k=%d: gradient norm %v != interval-1 norm %v", nt, k, res.GradNorm, base)
			}
		}
	}
}

// TestGradientCheckpointMemory pins both terms of the memory bound as
// counts, serially and on every rank of a 2x2 world: a snapshot holds two
// whole time buffers, and the level cache at most k+2 DOMAIN levels.
func TestGradientCheckpointMemory(t *testing.T) {
	const k = 3
	check := func(m *Model, ctx *core.Context) error {
		res, err := RunGradient(m, ctx, exactGradientConfig(k))
		if err != nil {
			return err
		}
		u := m.Fields[m.WaveFields[0]]
		st := res.Checkpoint
		if want := (8 - 1) / k; st.Snapshots != want {
			return fmt.Errorf("%d snapshots, want (nt-1)/k = %d", st.Snapshots, want)
		}
		if want := int64(st.Snapshots * 2 * 4 * len(u.Buf(0).Data)); st.SnapshotBytes != want {
			return fmt.Errorf("%d snapshots hold %d bytes, want two buffers each = %d", st.Snapshots, st.SnapshotBytes, want)
		}
		if bound := int64((k + 2) * 4 * u.DomainRegion().Size()); st.LevelBytes <= 0 || st.LevelBytes > bound {
			return fmt.Errorf("level cache peaked at %d bytes, want within (0, %d] (k+2 DOMAIN levels)", st.LevelBytes, bound)
		}
		return nil
	}
	if err := check(exactAcoustic(t), nil); err != nil {
		t.Fatalf("serial: %v", err)
	}
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		m, ctx, err := dotTestModel(c, halo.ModeDiagonal)
		if err != nil {
			return err
		}
		if err := check(m, ctx); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGradientEveryIntervalAlignment sweeps every interval against step
// counts around the segment boundaries — in particular nt % k == 1,
// where the last reverse step needs a forward level one past the final
// segment's re-integration window (a regression: the snapshot lookup
// must be based on the top of the needed range, not the bottom).
func TestGradientEveryIntervalAlignment(t *testing.T) {
	for _, nt := range []int{7, 8, 9} {
		gc := exactGradientConfig(1)
		gc.NT = nt
		base, err := RunGradient(exactAcoustic(t), nil, gc)
		if err != nil {
			t.Fatalf("nt=%d k=1: %v", nt, err)
		}
		for k := 2; k <= nt+1; k++ {
			gc := exactGradientConfig(k)
			gc.NT = nt
			res, err := RunGradient(exactAcoustic(t), nil, gc)
			if err != nil {
				t.Fatalf("nt=%d k=%d: %v", nt, k, err)
			}
			if res.GradNorm != base.GradNorm {
				t.Errorf("nt=%d k=%d: gradient norm %v != interval-1 norm %v",
					nt, k, res.GradNorm, base.GradNorm)
			}
		}
	}
}

// TestGradientDMP runs the full checkpointed gradient on 4 ranks with
// worker-pool parallelism and compares against the serial result: the
// ranks' owned boxes of the gradient assemble the serial gradient point
// for point.
func TestGradientDMP(t *testing.T) {
	serial, err := RunGradient(exactAcoustic(t), nil, exactGradientConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	shape := serial.Gradient.LocalShape
	want := make([]float32, shape[0]*shape[1])
	scatterOwned(want, shape, serial.Gradient, 0)
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			got := make([]float32, len(want))
			err := mpi.RunRanks(4, func(c *mpi.Comm) error {
				m, ctx, err := dotTestModel(c, mode)
				if err != nil {
					return err
				}
				gc := exactGradientConfig(3)
				gc.Workers = 2
				res, err := RunGradient(m, ctx, gc)
				if err != nil {
					return err
				}
				if res.RelErr > dotTol {
					t.Errorf("rank %d: dot identity violated: rel %v", c.Rank(), res.RelErr)
				}
				if res.DotForward != serial.DotForward || res.DotAdjoint != serial.DotAdjoint {
					t.Errorf("rank %d: dots diverge from serial", c.Rank())
				}
				// The imaging kernel computes identical per-point float32
				// values on any decomposition; only the float64 norm
				// reduction order differs.
				if math.Abs(res.GradNorm-serial.GradNorm) > 1e-12*serial.GradNorm {
					t.Errorf("rank %d: gradient norm %v != serial %v", c.Rank(), res.GradNorm, serial.GradNorm)
				}
				// Ranks own disjoint boxes, so they scatter concurrently.
				scatterOwned(got, shape, res.Gradient, 0)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("gradient at %d: %v on 4 ranks, %v serial", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGradientSurveyShapeDefault pins the default interval on the shape
// of the benchmark's survey shot (128², so-16, NT 96): k = 35 instead of
// the sqrt rule's 10, two snapshots, 57 recomputed steps instead of 90
// (61 if every segment stepped up to its top), in no more memory than the
// sqrt rule's interval took, 10 snapshots and 12 levels = 2,834,432 bytes.
func TestGradientSurveyShapeDefault(t *testing.T) {
	m, err := Acoustic(Config{Shape: []int{128, 128}, SpaceOrder: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newGradientSolver(m, nil, GradientConfig{NT: 96, NReceivers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.store.Interval != 35 {
		t.Errorf("default interval %d, want 35", s.store.Interval)
	}
	res, err := s.solve(Shot{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Checkpoint
	if st.Snapshots != 2 {
		t.Errorf("%d snapshots, want 2", st.Snapshots)
	}
	if st.RecomputedSteps != 57 {
		t.Errorf("recomputed %d steps, want 57", st.RecomputedSteps)
	}
	if held := st.SnapshotBytes + st.LevelBytes; held > 2834432 {
		t.Errorf("held %d snapshot + %d level bytes = %d, over the sqrt interval's 2834432", st.SnapshotBytes, st.LevelBytes, held)
	}
}

// TestGradientDMPDefaultIntervalAgrees runs a default-interval gradient on
// a 2x2 world over an uneven 37² grid, whose ranks own chunks of different
// sizes, and holds every rank to the same interval — the recompute Applys
// exchange halos, so ranks that disagreed would deadlock — and the
// assembled gradient to the serial one bit for bit, as TestGradientDMP
// does. The time-tiled case deepens the ghost storage the default is
// priced on to 4 points, where an interval priced on the chunks (19 and 18
// points a side) instead of the global shape would differ between ranks.
func TestGradientDMPDefaultIntervalAgrees(t *testing.T) {
	const nt = 45
	model := func(c *mpi.Comm, mode halo.Mode) (*Model, *core.Context, error) {
		m, ctx, err := OnRank(c, "acoustic", Config{Shape: []int{37, 37}, SpaceOrder: 2, NBL: 0, Velocity: 1}, mode, []int{2, 2})
		if err != nil {
			return nil, nil, err
		}
		fillConst(m.Fields["m"], 2)
		return m, ctx, nil
	}
	gc := GradientConfig{NT: nt, DT: 1, Wavelet: []float32{1, -2, 1},
		SourceCoords: []float64{18, 18}, ReceiverCoords: [][]float64{{6, 5}, {17, 30}, {30, 9}, {31, 33}}}
	sm, _, err := model(nil, halo.ModeNone)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunGradient(sm, nil, gc)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Checkpoint.Snapshots == 0 || serial.Checkpoint.RecomputedSteps == 0 {
		t.Fatalf("serial default recomputes nothing (%+v): the test needs a recompute", serial.Checkpoint)
	}
	shape := serial.Gradient.LocalShape
	want := make([]float32, shape[0]*shape[1])
	scatterOwned(want, shape, serial.Gradient, 0)
	for _, tc := range []struct {
		mode halo.Mode
		tile int
	}{{halo.ModeDiagonal, 1}, {halo.ModeFull, 4}} {
		t.Run(fmt.Sprintf("%s/k%d", tc.mode, tc.tile), func(t *testing.T) {
			got := make([]float32, len(want))
			intervals, halos := make([]int, 4), make([]int, 4)
			err := mpi.RunRanks(4, func(c *mpi.Comm) error {
				m, ctx, err := model(c, tc.mode)
				if err != nil {
					return err
				}
				rgc := gc
				rgc.Workers, rgc.TimeTile = 2, tc.tile
				s, err := newGradientSolver(m, ctx, rgc, nil)
				if err != nil {
					return err
				}
				defer s.close()
				intervals[c.Rank()] = s.store.Interval
				halos[c.Rank()] = m.Fields["u"].Halo[0]
				// Fail instead of deadlocking in a recompute.
				k := float64(s.store.Interval)
				if lo, hi := c.AllreduceScalar(k, mpi.OpMin), c.AllreduceScalar(k, mpi.OpMax); lo != hi {
					return fmt.Errorf("rank %d: interval %v, the world's run from %v to %v", c.Rank(), k, lo, hi)
				}
				res, err := s.solve(Shot{})
				if err != nil {
					return err
				}
				if res.DotForward != serial.DotForward || res.DotAdjoint != serial.DotAdjoint {
					t.Errorf("rank %d: dots diverge from serial", c.Rank())
				}
				if math.Abs(res.GradNorm-serial.GradNorm) > 1e-12*serial.GradNorm {
					t.Errorf("rank %d: gradient norm %v != serial %v", c.Rank(), res.GradNorm, serial.GradNorm)
				}
				scatterOwned(got, shape, res.Gradient, 0)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("default interval %d on every rank (u halo %v)", intervals[0], halos)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("gradient at %d: %v on 4 ranks, %v serial", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGradientResidualSource checks the FWI residual path: observed data
// equal to the synthetics yields a zero adjoint source and hence a zero
// gradient.
func TestGradientResidualSource(t *testing.T) {
	gc := exactGradientConfig(3)
	fres, err := Run(exactAcoustic(t), nil, RunConfig{
		NT: gc.NT, DT: gc.DT, Wavelet: gc.Wavelet,
		SourceCoords:   gc.SourceCoords,
		ReceiverCoords: gc.ReceiverCoords,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2 := exactAcoustic(t)
	gc.ObsData = fres.Receivers
	res, err := RunGradient(m2, nil, gc)
	if err != nil {
		t.Fatal(err)
	}
	if res.GradNorm != 0 {
		t.Errorf("zero residual must give a zero gradient, got norm %v", res.GradNorm)
	}
}

func TestAdjointModelStructure(t *testing.T) {
	m := exactAcoustic(t)
	adj, err := Adjoint(m)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Name != "acoustic_adjoint" {
		t.Errorf("name %q", adj.Name)
	}
	// Parameter fields are shared storage, the wavefield is fresh.
	if adj.Fields["m"] != m.Fields["m"] || adj.Fields["damp"] != m.Fields["damp"] {
		t.Error("adjoint must share the forward parameter fields")
	}
	if adj.Fields["v"] == nil || adj.Fields["v"] == m.Fields["u"] {
		t.Error("adjoint wavefield must be fresh storage")
	}
	lhs := adj.Eqs[0].LHS.String()
	if lhs != "v[t-1,x,y]" {
		t.Errorf("adjoint update target %q, want the backward stencil", lhs)
	}
	el, err := Elastic(Config{Shape: []int{16, 16}, SpaceOrder: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Adjoint(el); err == nil {
		t.Error("elastic adjoint should report unsupported")
	}
}

// TestRunGradientRejectsBadObsDataBeforeStepping: a mis-shaped ObsData —
// the wrong step count, or a row without one value per receiver — fails
// before the forward pass executes a single step.
func TestRunGradientRejectsBadObsDataBeforeStepping(t *testing.T) {
	rows := func(n, short int) [][]float64 {
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, 4)
		}
		if short >= 0 {
			data[short] = data[short][:3]
		}
		return data
	}
	obs.Reset()
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	for _, tc := range []struct {
		name  string
		nrec  int // 0 keeps exactGradientConfig's four ReceiverCoords
		data  [][]float64
		wantE string
	}{
		{"steps", 0, rows(3, -1), "ObsData has 3 steps, want NT=8"},
		{"traces", 0, rows(8, 5), "ObsData step 5 has 3 traces, want 4"},
		{"receiver line", 5, rows(8, -1), "ObsData step 0 has 4 traces, want 5"},
	} {
		gc := exactGradientConfig(3)
		if tc.nrec > 0 {
			gc.ReceiverCoords, gc.NReceivers = nil, tc.nrec
		}
		gc.ObsData = tc.data
		_, err := RunGradient(exactAcoustic(t), nil, gc)
		if err == nil || !strings.Contains(err.Error(), tc.wantE) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.wantE)
		}
	}
	if steps := obs.Snapshot().Total.SteadySteps; steps != 0 {
		t.Errorf("rejected gradients stepped %d times, want 0", steps)
	}
}

func TestRunGradientRejectsBadDTAndInterval(t *testing.T) {
	for _, dt := range badDTs {
		gc := exactGradientConfig(3)
		gc.DT = dt
		_, err := RunGradient(exactAcoustic(t), nil, gc)
		wantBadValue(t, err, "GradientConfig.DT", dt)
	}
	for _, k := range []int{-1, -8} {
		_, err := RunGradient(exactAcoustic(t), nil, exactGradientConfig(k))
		wantBadValue(t, err, "GradientConfig.CheckpointInterval", k)
	}
}

func TestRunGradientRejectsEmptyReceivers(t *testing.T) {
	// Set coordinates override NReceivers, so an empty set is empty either way.
	for _, n := range []int{0, 4} {
		gc := exactGradientConfig(3)
		gc.ReceiverCoords, gc.NReceivers = [][]float64{}, n
		if _, err := RunGradient(exactAcoustic(t), nil, gc); err == nil {
			t.Errorf("RunGradient accepted an empty ReceiverCoords (NReceivers %d)", n)
		}
	}
}

// TestBackwardAfterErrorStopsTheSweep: an after hook that fails at reverse
// step t0 fails the sweep with an error naming that step and is never
// called again. Every rank fails at the same step, so a 4-rank world
// returns instead of leaving a rank waiting in a collective.
func TestBackwardAfterErrorStopsTheSweep(t *testing.T) {
	const nt, t0 = 8, 5
	boom := errors.New("boom")
	sweep := func(c *mpi.Comm, mode halo.Mode) error {
		m, ctx, err := dotTestModel(c, mode)
		if err != nil {
			return err
		}
		adj, err := Adjoint(m)
		if err != nil {
			return err
		}
		op, err := core.NewOperator(adj.Eqs, adj.Fields, adj.Grid, ctx, Exec{}.options(adj.Name, nil))
		if err != nil {
			return err
		}
		defer op.Close()
		srcs, err := buildSources(adj, &RunConfig{ReceiverCoords: [][]float64{{6, 5}, {15, 14}}}, 1, nt)
		if err != nil {
			return err
		}
		data := make([][]float64, nt)
		for i := range data {
			data[i] = []float64{1, -1}
		}
		var calls []int
		_, err = backward(adj, ctx, op, srcs, data, 1, "", func(t int) error {
			calls = append(calls, t)
			if t == t0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("step %d", t0)) {
			t.Errorf("backward error %v does not wrap the hook's error naming step %d", err, t0)
		}
		if !slices.Equal(calls, []int{8, 7, 6, 5}) {
			t.Errorf("after called at steps %v, want [8 7 6 5] and nothing past the failure", calls)
		}
		return nil
	}
	if err := sweep(nil, halo.ModeNone); err != nil {
		t.Fatal(err)
	}
	err := returnsWithin(t, 30*time.Second, func() error {
		return mpi.RunRanks(4, func(c *mpi.Comm) error { return sweep(c, halo.ModeDiagonal) })
	})
	if err != nil {
		t.Fatal(err)
	}
}
