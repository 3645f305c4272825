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
		// The forward pass snapshots only steps below nt: the sweep restores
		// at most step nt-1.
		wantSnaps := 7/k + 1
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
	// The forward pass caches the last segment's levels, so the sweep
	// re-integrates every segment below it: ((nt-1)/k)*k steps, none at
	// k >= nt.
	for k, rec := range stats {
		if want := (8 - 1) / k * k; rec != want {
			t.Errorf("interval %d recomputed %d steps, want %d", k, rec, want)
		}
	}
}

// TestGradientForwardTailNotRecomputed pins the recompute count the
// forward tail buys: for every interval up to past nt the reverse sweep
// re-integrates exactly ((nt-1)/k)*k steps from (nt-1)/k+1 snapshots (none
// at step nt, which nothing restores), and the gradient keeps the bits of
// interval 1.
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
			if want := (nt - 1) / k * k; res.Checkpoint.RecomputedSteps != want {
				t.Errorf("nt=%d k=%d: recomputed %d steps, want %d", nt, k, res.Checkpoint.RecomputedSteps, want)
			}
			if want := (nt-1)/k + 1; res.Checkpoint.Snapshots != want {
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
		if want := int64(st.Snapshots * 2 * 4 * len(u.Buf(0).Data)); st.Snapshots == 0 || st.SnapshotBytes != want {
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
