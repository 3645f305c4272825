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
	s, err := newGradientSolver(m, ctx, gc, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return s.solve(Shot{})
}

// gradientSolver is what a gradient builds before its first step, on one
// rank: the model with its adjoint, the forward, adjoint and imaging
// operators and the checkpoint store. A survey
// builds one per shot worker and solves every shot it is handed on it;
// RunGradient solves one shot.
type gradientSolver struct {
	m, adj *Model
	ctx    *core.Context
	// gc is the base configuration; a Shot overrides its source geometry,
	// wavelet and observed data.
	gc                  GradientConfig
	dt                  float64
	fwdOp, adjOp, imgOp *core.Operator
	grad                *field.Function
	store               *checkpoint.Store
	// used is set once a shot has run: the next one resets the solver.
	// The first starts from the wavefields the caller built.
	used bool
}

// newGradientSolver validates gc's survey-wide settings and builds a
// gradient solver over m, lowering its three operators through cache (nil
// lowers privately).
func newGradientSolver(m *Model, ctx *core.Context, gc GradientConfig, cache *opcache.Cache) (_ *gradientSolver, err error) {
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
	k := gc.CheckpointInterval
	if k < 0 {
		return nil, fmt.Errorf("propagators: GradientConfig.CheckpointInterval must be >= 0 (0 = the sqrt(NT) default), got %d", k)
	}
	if k == 0 {
		k = checkpoint.DefaultInterval(nt)
	}
	s := &gradientSolver{m: m, ctx: ctx, gc: gc, dt: dt}
	// The solver owns its operators' persistent worker teams; release them
	// on a failed build too.
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.fwdOp, err = core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, gc.options(m.Name, cache)); err != nil {
		return nil, err
	}
	if s.adj, err = Adjoint(m); err != nil {
		return nil, err
	}
	if s.adjOp, err = core.NewOperator(s.adj.Eqs, s.adj.Fields, s.adj.Grid, ctx, gc.options(s.adj.Name, cache)); err != nil {
		return nil, err
	}
	if s.grad, s.imgOp, err = imagingOperator(m, s.adj, ctx, gc.options("imaging", cache)); err != nil {
		return nil, err
	}
	s.store = checkpoint.New(k, m.Fields[m.WaveFields[0]]) // forward() stamps it with this rank
	return s, nil
}

// close releases the operators' persistent worker teams.
func (s *gradientSolver) close() {
	for _, op := range []*core.Operator{s.fwdOp, s.adjOp, s.imgOp} {
		if op != nil {
			op.Close()
		}
	}
}

// reset returns the solver to its state after construction: every buffer
// of the forward and adjoint wavefields and of the gradient is zeroed,
// halos included, the store forgets its snapshots and cached levels, and
// the operators' counters restart. The parameter fields and the
// operators' tuned configurations stay.
func (s *gradientSolver) reset() {
	for _, md := range []*Model{s.m, s.adj} {
		for _, name := range md.WaveFields {
			for _, b := range md.Fields[name].Bufs {
				clear(b.Data)
			}
		}
	}
	for _, b := range s.grad.Bufs {
		clear(b.Data)
	}
	s.store.Reset()
	for _, op := range []*core.Operator{s.fwdOp, s.adjOp, s.imgOp} {
		op.ResetPerf()
	}
}

// solve computes the gradient of one shot: the base configuration with
// the shot's non-nil fields in place of its own. The result's Gradient is
// the solver's own field: the next solve zeroes it.
func (s *gradientSolver) solve(shot Shot) (*GradientResult, error) {
	gc := s.gc.withShot(shot)
	m, ctx, store := s.m, s.ctx, s.store
	nt, dt, autotune, obsData := gc.NT, s.dt, gc.Autotune, gc.ObsData
	srcs, err := buildSources(m, &RunConfig{Wavelet: gc.Wavelet, SourceCoords: gc.SourceCoords,
		NReceivers: gc.NReceivers, ReceiverCoords: gc.ReceiverCoords}, dt, nt)
	if err != nil {
		return nil, err
	}
	// A mis-shaped ObsData fails before the forward pass spends a full
	// integration on it.
	if obsData != nil {
		if len(obsData) != nt {
			return nil, fmt.Errorf("propagators: ObsData has %d steps, want NT=%d", len(obsData), nt)
		}
		nrec := srcs.rec.NPoints()
		for t, row := range obsData {
			if len(row) != nrec {
				return nil, fmt.Errorf("propagators: ObsData step %d has %d traces, want %d", t, len(row), nrec)
			}
		}
	}
	if s.used {
		s.reset()
	}
	s.used = true
	k := store.Interval

	// Phase 1: checkpointed forward integration recording synthetics.
	fres, err := forward(m, ctx, s.fwdOp, srcs, autotune, store, nt, dt)
	if err != nil {
		return nil, err
	}
	res := &GradientResult{NT: nt, DT: dt, Receivers: fres.Receivers,
		ForwardPerf: fres.Perf, ForwardConfig: s.fwdOp.Config()}

	// The adjoint source: residual against observed data when given,
	// otherwise the synthetics themselves.
	adjSrc := fres.Receivers
	if obsData != nil {
		adjSrc = make([][]float64, nt)
		for t := range adjSrc {
			row := make([]float64, len(fres.Receivers[t]))
			for r := range row {
				row[r] = fres.Receivers[t][r] - obsData[t][r]
			}
			adjSrc[t] = row
		}
	}
	syms := map[string]float64{"dt": dt}

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
			Autotune: autotune,
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
		return s.imgOp.Apply(&core.ApplyOpts{TimeM: j, TimeN: j, Syms: syms, Autotune: autotune})
	}
	res.SrcTraces, err = backward(s.adj, ctx, s.adjOp, srcs, adjSrc, dt, autotune, image)
	if err != nil {
		return nil, err
	}

	res.Gradient = s.grad
	res.GradNorm = normOf(s.grad, ctx, 0)
	res.AdjointPerf = s.adjOp.Report()
	res.AdjointConfig = s.adjOp.Config()
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
	grad, err := field.NewFunction("grad", fwd.Grid, fwd.SpaceOrder, fieldCfg(&fwd.Cfg, nil))
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
