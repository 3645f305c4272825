package propagators

import (
	"fmt"
	"math"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/sparse"
	"devigo/internal/symbolic"
)

// This file implements the adjoint (time-reversed) companion of a forward
// propagator — the operator A' of the FWI/RTM workload class. Writing the
// forward acoustic update as
//
//	D1 u[t+1] = (D2 + L) u[t] - D3 u[t-1] + s,
//	D1 = m/dt^2 + damp/(2dt),  D2 = 2m/dt^2,  D3 = m/dt^2 - damp/(2dt),
//
// the exact discrete transpose of the full time-stepping map is obtained
// by solving the same PDE with the sign of the damping term flipped for
// the *backward* stencil v[t-1] and running the time loop in reverse:
//
//	D1 v[t-1] = (D2 + L) v[t] - D3 v[t+1] + r,
//
// (substitute v = D1^-1 w in the transposed recursion to see the
// coefficient roles swap back). Receiver data is injected as the adjoint
// source r with the same dt^2/m scaling as the forward source, and the
// adjoint wavefield is read back at the source position — so for sources
// and receivers placed in the damp-free interior the pair satisfies the
// discrete dot-product identity <Fq, d> = <q, F'd> exactly (up to
// floating-point rounding of the wavefield stores).

// Adjoint builds the time-reversed companion model of a forward model:
// the same physics solved for the backward stencil on a fresh adjoint
// wavefield, sharing the forward model's grid and parameter fields.
// Implemented for the acoustic propagator (the paper's FWI workload);
// the first-order staggered systems would need side-flipped staggered
// stencils and remain future work.
func Adjoint(fwd *Model) (*Model, error) {
	switch fwd.Name {
	case "acoustic":
		return acousticAdjoint(fwd)
	}
	return nil, fmt.Errorf("propagators: no adjoint for model %q (only acoustic)", fwd.Name)
}

// acousticAdjoint solves m*v.dt2 - laplace(v) - damp*v.dt = 0 for
// v.backward — the damping sign flip that makes the reversed recursion
// the exact transpose of the forward one.
func acousticAdjoint(fwd *Model) (*Model, error) {
	c := fwd.Cfg
	g := fwd.Grid
	so := fwd.SpaceOrder
	v, err := field.NewTimeFunction("v", g, so, 2, fieldCfg(&c, nil))
	if err != nil {
		return nil, err
	}
	mField, ok := fwd.Fields["m"]
	if !ok {
		return nil, fmt.Errorf("propagators: forward model lacks the m field")
	}
	damp, ok := fwd.Fields["damp"]
	if !ok {
		return nil, fmt.Errorf("propagators: forward model lacks the damp field")
	}
	nd := g.NDims()
	vt := symbolic.At(v.Ref)
	pde := symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(mField.Ref), symbolic.Dt2(vt, 2)),
		symbolic.Neg(symbolic.Laplace(vt, nd, so)),
		symbolic.Neg(symbolic.NewMul(symbolic.At(damp.Ref), symbolic.Dt(vt, 2))),
	)
	sol, err := symbolic.Solve(symbolic.Eq{LHS: pde, RHS: symbolic.Int(0)}, symbolic.Backward(v.Ref))
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:       "acoustic_adjoint",
		Grid:       g,
		SpaceOrder: so,
		Eqs: []symbolic.Eq{
			{LHS: symbolic.Backward(v.Ref), RHS: sol},
		},
		Fields: map[string]*field.Function{
			"v": &v.Function, "m": mField, "damp": damp,
		},
		WaveFields:       []string{"v"},
		SourceFields:     []string{"v"},
		CriticalDt:       fwd.CriticalDt,
		WorkingSetFields: 5,
		Cfg:              c,
	}, nil
}

// AdjointConfig drives a time-reversed run.
type AdjointConfig struct {
	// NT is the number of timesteps (must match the forward run whose
	// data is injected).
	NT int
	// DT is the timestep (0 keeps CriticalDt).
	DT float64
	// RecCoords are the adjoint-source positions — the receiver layout of
	// the forward run.
	RecCoords [][]float64
	// RecData is the injected time series, NT x len(RecCoords), in
	// forward-time order (the reversal happens inside the sweep).
	RecData [][]float64
	// SrcCoords is the read-back position (the forward source); nil uses
	// the domain centre.
	SrcCoords []float64
	// Workers / TileRows forward to the executor.
	Workers  int
	TileRows int
	// TimeTile requests the halo-exchange interval k for the reverse
	// sweep; 0 consults DEVIGO_TIME_TILE.
	TimeTile int
	// Engine selects the execution engine ("" = core default).
	Engine string
	// Autotune selects the self-configuration policy forwarded to
	// core.ApplyOpts.Autotune ("" consults DEVIGO_AUTOTUNE).
	Autotune string
}

// AdjointResult carries the outputs of a time-reversed run.
type AdjointResult struct {
	NT int
	DT float64
	// SrcTraces is F'(d) sampled at SrcCoords, in forward-time order:
	// SrcTraces[t] pairs with the forward wavelet sample q[t] in the
	// dot-product identity.
	SrcTraces []float64
	// Norm is the L2 norm of the adjoint wavefield's final state (time
	// buffer 0), all-reduced under DMP.
	Norm float64
	// Perf reports the adjoint operator's section timings.
	Perf core.Perf
	// Op exposes the compiled adjoint operator.
	Op *core.Operator
}

// RunAdjoint compiles the adjoint companion of a forward model and runs
// it backwards in time: the reverse loop writes v[t-1] for t = NT..1,
// injecting RecData[t-1] into the freshly written buffer and sampling
// the source position — the exact transpose of the forward source/record
// schedule. ctx may be nil (serial) or carry one rank of an MPI world.
func RunAdjoint(fwd *Model, ctx *core.Context, ac AdjointConfig) (*AdjointResult, error) {
	adj, err := Adjoint(fwd)
	if err != nil {
		return nil, err
	}
	dt := adj.CriticalDt
	if ac.DT > 0 {
		dt = ac.DT
	}
	nt := ac.NT
	if nt <= 0 {
		return nil, fmt.Errorf("propagators: AdjointConfig needs NT")
	}
	if len(ac.RecCoords) == 0 {
		return nil, fmt.Errorf("propagators: AdjointConfig needs RecCoords")
	}
	if len(ac.RecData) != nt {
		return nil, fmt.Errorf("propagators: RecData has %d steps, want NT=%d", len(ac.RecData), nt)
	}
	for t, row := range ac.RecData {
		if len(row) != len(ac.RecCoords) {
			return nil, fmt.Errorf("propagators: RecData step %d has %d traces for %d receivers",
				t, len(row), len(ac.RecCoords))
		}
	}
	op, err := core.NewOperator(adj.Eqs, adj.Fields, adj.Grid, ctx,
		&core.Options{Name: adj.Name, Workers: ac.Workers, TileRows: ac.TileRows,
			TimeTile: ac.TimeTile, Engine: ac.Engine})
	if err != nil {
		return nil, err
	}
	rec, err := sparse.New("rec", adj.Grid, ac.RecCoords)
	if err != nil {
		return nil, err
	}
	srcCoords := ac.SrcCoords
	if srcCoords == nil {
		srcCoords = CenterSource(adj.Grid)
	}
	src, err := sparse.New("src", adj.Grid, [][]float64{srcCoords})
	if err != nil {
		return nil, err
	}
	scale := injectionScale(adj, dt)
	v := adj.Fields["v"]

	res := &AdjointResult{NT: nt, DT: dt, Op: op, SrcTraces: make([]float64, nt)}
	vals := make([]float32, len(ac.RecCoords))
	var hook firstErr
	postStep := func(t int) {
		// The reverse iteration t wrote buffer t-1 (= the adjoint state
		// w[t-1]); inject the matching receiver sample — mirrored into the
		// ghost shell under time tiling — and read back.
		for r, d := range ac.RecData[t-1] {
			vals[r] = float32(d) * scale
		}
		hook.keep(adjointInject(adj, rec, v, t, vals, op.InjectDepth()))
		res.SrcTraces[t-1] = src.Interpolate(v, t-1, commOf(ctx))[0]
	}
	if err := op.Apply(&core.ApplyOpts{
		TimeM:    1,
		TimeN:    nt,
		Reverse:  true,
		Syms:     map[string]float64{"dt": dt},
		PostStep: postStep,
		Autotune: ac.Autotune,
	}); err != nil {
		return nil, err
	}
	if hook.err != nil {
		return nil, hook.err
	}
	res.Perf = op.Report()
	res.Norm = fieldNorm(adj, ctx, 0)
	return res, nil
}

// adjointInject adds reverse step t's receiver samples into the adjoint
// state that step wrote, buffer t-1 of v.
func adjointInject(adj *Model, rec *sparse.SparseFunction, v *field.Function, t int, vals []float32, depth []int) error {
	if err := rec.InjectDeep(v, t-1, vals, depth); err != nil {
		return fmt.Errorf("propagators: %s: receiver injection at step %d: %w", adj.Name, t, err)
	}
	return nil
}

// DotTestResult reports one adjointness certification: the two sides of
// <Fq, d> = <q, F'd> and their relative gap.
type DotTestResult struct {
	NT          int
	DotForward  float64 // <Fq, Fq> — the forward side with d = Fq
	DotAdjoint  float64 // <q, F'Fq>
	RelErr      float64
	ForwardNorm float64
	AdjointNorm float64
}

// RelDot returns |a-b| / max(|a|, |b|, tiny).
func RelDot(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Abs(a-b) / den
}

// RunDotTest runs the standard adjoint (dot-product) certification on the
// acoustic model: forward d = Fq, adjoint q' = F'd, then <d,d> must equal
// <q,q'>. The configuration is engineered so that every floating-point
// operation is exact in float32 storage — second-order stencil (integer
// Laplacian weights), dt = 1 with m = 2 (dyadic update coefficient 1/2,
// marginally stable), no absorbing layer, on-grid source/receivers and a
// dyadic wavelet — so any structural error in the adjoint (a wrong time
// offset, scale or stencil asymmetry) shows up as an O(1) relative gap
// while a correct transpose yields ~0, far below the 1e-8 gate that
// float32 rounding noise would otherwise drown.
//
// c is the calling rank of the world to certify on under halo pattern mode
// (nil, or a world of one: serial).
func RunDotTest(c *mpi.Comm, mode halo.Mode, engine string) (*DotTestResult, error) {
	const nt = 8
	m, ctx, err := OnRank(c, "acoustic", Config{Shape: []int{24, 24}, SpaceOrder: 2, NBL: 0, Velocity: 1}, mode, nil)
	if err != nil {
		return nil, err
	}
	// m = 2 keeps the update coefficient dt^2/m = 1/2 exactly dyadic and
	// the scheme marginally stable (|2 + lambda_L/2| <= 2 in 2-D).
	fillConst(m.Fields["m"], 2)

	wavelet := []float32{1, -2, 1}
	srcCoords := []float64{12, 12}
	recCoords := [][]float64{{6, 5}, {11, 9}, {15, 14}, {17, 16}}

	fres, err := Run(m, ctx, RunConfig{
		NT: nt, DT: 1,
		Wavelet:        wavelet,
		SourceCoords:   srcCoords,
		ReceiverCoords: recCoords,
		Engine:         engine,
	})
	if err != nil {
		return nil, err
	}
	ares, err := RunAdjoint(m, ctx, AdjointConfig{
		NT: nt, DT: 1,
		RecCoords: recCoords,
		RecData:   fres.Receivers,
		SrcCoords: srcCoords,
		Engine:    engine,
	})
	if err != nil {
		return nil, err
	}
	res := &DotTestResult{NT: nt, ForwardNorm: fres.Norm, AdjointNorm: ares.Norm}
	for t := 0; t < nt; t++ {
		for _, d := range fres.Receivers[t] {
			res.DotForward += d * d
		}
		var q float64
		if t < len(wavelet) {
			q = float64(wavelet[t])
		}
		res.DotAdjoint += q * ares.SrcTraces[t]
	}
	res.RelErr = RelDot(res.DotForward, res.DotAdjoint)
	return res, nil
}
