package propagators

import (
	"fmt"

	"devigo/internal/checkpoint"
	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/opcache"
	"devigo/internal/symbolic"
)

// GradientConfig drives a checkpointed forward+adjoint gradient (FWI/RTM)
// computation.
type GradientConfig struct {
	// NT is the number of timesteps.
	NT int
	// DT overrides the critical timestep (0 keeps CriticalDt; any other
	// value must be positive and finite).
	DT float64
	// Wavelet overrides the Ricker source signature.
	Wavelet []float32
	// SourceCoords overrides the default centre source.
	SourceCoords []float64
	// NReceivers / ReceiverCoords configure the receiver layout (at least
	// one receiver is required — it drives the adjoint source).
	NReceivers     int
	ReceiverCoords [][]float64
	// ObsData is optional observed data (NT x nrec); when set the adjoint
	// source is the residual d_syn - d_obs (an FWI gradient), otherwise
	// the synthetic data itself is back-propagated (an RTM-style image,
	// and the configuration of the dot-product test).
	ObsData [][]float64
	// CheckpointInterval is the snapshot spacing k: memory holds (NT-1)/k+1
	// snapshots of two time levels each (halos included) plus at most k+2
	// cached DOMAIN levels. The forward pass caches the levels of the last
	// segment, so the reverse sweep re-integrates every segment but the last:
	// ((NT-1)/k)*k steps, none when k >= NT. 0 uses the sqrt(NT) heuristic
	// that balances the two memory terms; a negative value is an error.
	CheckpointInterval int
	// Exec configures the forward, adjoint and imaging operators (the
	// pointwise imaging kernel has no halo, so it never time-tiles).
	Exec
}

// GradientResult carries the outputs of a gradient computation.
type GradientResult struct {
	NT int
	DT float64
	// Receivers is the synthetic data d = Fq of the forward pass.
	Receivers [][]float64
	// SrcTraces is the adjoint wavefield sampled at the source position
	// (forward-time order) — the F'd side of the dot-product identity.
	SrcTraces []float64
	// Gradient is the accumulated image: grad -= u.dt2 * v summed over
	// the reverse sweep (the zero-lag cross-correlation imaging
	// condition). It lives on the forward model's grid/decomposition.
	Gradient *field.Function
	// GradNorm is the global L2 norm of the gradient.
	GradNorm float64
	// DotForward = <d, dhat> and DotAdjoint = <q, F'dhat> are the two
	// sides of the adjoint identity (dhat is the back-propagated series);
	// RelErr is their relative gap.
	DotForward, DotAdjoint, RelErr float64
	// Checkpoint reports the memory/recompute cost counters: both terms of
	// the memory bound (SnapshotBytes, LevelBytes) and RecomputedSteps.
	Checkpoint checkpoint.Stats
	// ForwardPerf / AdjointPerf report the two operators' section timings
	// (ForwardPerf excludes the reverse sweep's recomputation).
	ForwardPerf, AdjointPerf core.Perf
	// ForwardConfig / AdjointConfig record the effective execution
	// configurations (chosen by the autotuner or forced) for provenance.
	ForwardConfig, AdjointConfig core.EffectiveConfig
}

// RunGradient computes an FWI-style gradient on the acoustic model: a
// checkpointed forward run, then a reverse sweep that steps the adjoint
// operator backwards while re-materialising the forward wavefield from
// snapshots segment by segment, correlating the two fields into the
// gradient with a compiled imaging kernel at every step. Memory stays
// bounded by the checkpoint interval instead of growing with NT.
// ctx may be nil (serial) or carry one rank of an MPI world.
func RunGradient(m *Model, ctx *core.Context, gc GradientConfig) (*GradientResult, error) {
	return runGradient(m, ctx, gc, nil)
}

// runGradient is RunGradient lowering its forward, adjoint and imaging
// operators through an operator cache (nil lowers privately): across the
// shots of a survey, each of the three schedules is lowered once.
func runGradient(m *Model, ctx *core.Context, gc GradientConfig, cache *opcache.Cache) (*GradientResult, error) {
	dt, err := stepDT("GradientConfig.DT", gc.DT, m.CriticalDt)
	if err != nil {
		return nil, err
	}
	nt := gc.NT
	if nt <= 0 {
		return nil, fmt.Errorf("propagators: GradientConfig needs NT")
	}
	// Set coordinates win over NReceivers, as in buildSources; neither may
	// leave the receiver set empty.
	if len(gc.ReceiverCoords) == 0 && (gc.ReceiverCoords != nil || gc.NReceivers <= 1) {
		return nil, fmt.Errorf("propagators: GradientConfig needs receivers (the adjoint source)")
	}
	// A mis-shaped ObsData fails before the forward pass spends a full
	// integration on it.
	if gc.ObsData != nil {
		if len(gc.ObsData) != nt {
			return nil, fmt.Errorf("propagators: ObsData has %d steps, want NT=%d", len(gc.ObsData), nt)
		}
		nrec := gc.NReceivers
		if gc.ReceiverCoords != nil {
			nrec = len(gc.ReceiverCoords)
		}
		for t, row := range gc.ObsData {
			if len(row) != nrec {
				return nil, fmt.Errorf("propagators: ObsData step %d has %d traces, want %d", t, len(row), nrec)
			}
		}
	}
	k := gc.CheckpointInterval
	if k < 0 {
		return nil, fmt.Errorf("propagators: GradientConfig.CheckpointInterval must be >= 0 (0 = the sqrt(NT) default), got %d", k)
	}
	if k == 0 {
		k = checkpoint.DefaultInterval(nt)
	}
	u := m.Fields[m.WaveFields[0]]
	store := checkpoint.New(k, u) // forward() stamps it with this rank

	// Phase 1: checkpointed forward integration recording synthetics.
	rc := RunConfig{
		NT: nt, DT: dt,
		Wavelet:        gc.Wavelet,
		SourceCoords:   gc.SourceCoords,
		NReceivers:     gc.NReceivers,
		ReceiverCoords: gc.ReceiverCoords,
		Exec:           gc.Exec,
	}
	fres, err := run(m, ctx, rc, cache, store)
	if err != nil {
		return nil, err
	}
	// The gradient owns all three operators for the whole computation;
	// release their persistent worker teams on every exit path (shot
	// surveys would otherwise accumulate parked goroutines per shot).
	defer fres.Op.Close()
	res := &GradientResult{NT: nt, DT: fres.DT, Receivers: fres.Receivers,
		ForwardPerf: fres.Perf, ForwardConfig: fres.Op.Config()}

	// The adjoint source: residual against observed data when given,
	// otherwise the synthetics themselves.
	adjSrc := fres.Receivers
	if gc.ObsData != nil {
		adjSrc = make([][]float64, nt)
		for t := range adjSrc {
			row := make([]float64, len(fres.Receivers[t]))
			for r := range row {
				row[r] = fres.Receivers[t][r] - gc.ObsData[t][r]
			}
			adjSrc[t] = row
		}
	}

	// Phase 2 machinery: the adjoint operator, the imaging kernel, and
	// the forward source setup replayed during segment recomputation.
	adj, err := Adjoint(m)
	if err != nil {
		return nil, err
	}
	adjOp, err := core.NewOperator(adj.Eqs, adj.Fields, adj.Grid, ctx, gc.options(adj.Name, cache))
	if err != nil {
		return nil, err
	}
	defer adjOp.Close()
	grad, imgOp, err := imagingOperator(m, adj, ctx, gc.options("imaging", cache))
	if err != nil {
		return nil, err
	}
	defer imgOp.Close()
	srcs, err := buildSources(m, &rc, fres.DT, nt)
	if err != nil {
		return nil, err
	}
	syms := map[string]float64{"dt": fres.DT}

	// ensureLevels re-materialises the forward time levels lo..hi from
	// the newest snapshot at or below hi-1, replaying the source
	// injection so the recomputation is bit-identical. Basing the lookup
	// on hi-1 (not lo) guarantees the re-integrated window s-1..s+k
	// covers hi even when hi sits on a snapshot step; lo >= s-1 holds
	// because snapshots are at most k apart. The forward pass cached every
	// level from one below the last snapshot under nt, so a recompute
	// starts below that snapshot and its k steps end at or before it.
	ensureLevels := func(lo, hi int) error {
		if store.HasLevel(lo) && store.HasLevel(hi) {
			return nil
		}
		s, err := store.SnapshotAtOrBefore(hi - 1)
		if err != nil {
			return err
		}
		if err := store.Restore(s); err != nil {
			return err
		}
		store.PruneLevels(s-1, s+k)
		store.RecordLevel(s - 1)
		store.RecordLevel(s)
		var hook firstErr
		if err := fres.Op.Apply(&core.ApplyOpts{
			TimeM: s, TimeN: s + k - 1, Syms: syms,
			PostStep: func(t int) {
				hook.keep(srcs.inject(m, t, fres.Op.InjectDepth()))
				store.RecordLevel(t + 1)
			},
			Autotune: gc.Autotune,
		}); err != nil {
			return err
		}
		if hook.err != nil {
			return hook.err
		}
		store.Stats.RecomputedSteps += k
		return nil
	}

	// Phase 2: the reverse sweep. Iteration t writes the adjoint state
	// into buffer t-1; the imaging condition at level j = t-1 then
	// correlates u.dt2 (levels j-1, j, j+1) with the adjoint field at level
	// j. The adjoint kernel reads only v, m and damp and the recompute
	// writes only u, so re-materialising u between adjoint steps leaves the
	// sweep's values untouched.
	image := func(t int) error {
		j := t - 1
		if err := ensureLevels(j-1, j+1); err != nil {
			return err
		}
		for _, lvl := range []int{j - 1, j, j + 1} {
			if err := store.LoadLevel(lvl); err != nil {
				return err
			}
		}
		return imgOp.Apply(&core.ApplyOpts{TimeM: j, TimeN: j, Syms: syms, Autotune: gc.Autotune})
	}
	res.SrcTraces, err = backward(adj, ctx, adjOp, srcs, adjSrc, fres.DT, gc.Autotune, image)
	if err != nil {
		return nil, err
	}

	res.Gradient = grad
	res.GradNorm = normOf(grad, ctx, 0)
	res.AdjointPerf = adjOp.Report()
	res.AdjointConfig = adjOp.Config()
	res.Checkpoint = store.Stats
	for t := 0; t < nt; t++ {
		for r := range adjSrc[t] {
			res.DotForward += fres.Receivers[t][r] * adjSrc[t][r]
		}
		var q float64
		if srcs.wavelet != nil && t < len(srcs.wavelet) {
			q = float64(srcs.wavelet[t])
		}
		res.DotAdjoint += q * res.SrcTraces[t]
	}
	res.RelErr = RelDot(res.DotForward, res.DotAdjoint)
	return res, nil
}

// imagingOperator compiles the zero-lag cross-correlation imaging
// condition grad = grad - u.dt2 * v as a devigo operator. Every access
// sits at space offset zero, so the kernel needs no halo exchange and
// runs identically under any DMP mode.
func imagingOperator(fwd, adj *Model, ctx *core.Context, opts *core.Options) (*field.Function, *core.Operator, error) {
	c := fwd.Cfg
	grad, err := field.NewFunction("grad", fwd.Grid, fwd.SpaceOrder, fieldCfg(&c, nil))
	if err != nil {
		return nil, nil, err
	}
	u := fwd.Fields[fwd.WaveFields[0]]
	v := adj.Fields[adj.WaveFields[0]]
	eq := symbolic.Eq{
		LHS: symbolic.At(grad.Ref),
		RHS: symbolic.Sub(
			symbolic.At(grad.Ref),
			symbolic.NewMul(symbolic.Dt2(symbolic.At(u.Ref), 2), symbolic.At(v.Ref)),
		),
	}
	fields := map[string]*field.Function{
		"grad": grad, u.Name: u, v.Name: v,
	}
	op, err := core.NewOperator([]symbolic.Eq{eq}, fields, fwd.Grid, ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	return grad, op, nil
}
