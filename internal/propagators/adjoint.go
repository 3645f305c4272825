package propagators

import (
	"fmt"
	"math"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
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

// acousticAdjoint is the acoustic wave equation with the damping sign
// flipped, solved for v.backward over the forward model's m and damp.
func acousticAdjoint(fwd *Model) (*Model, error) {
	b := builderOn(fwd.Cfg, fwd.Grid)
	v := b.timeField("v", 2, nil)
	m, damp := b.share(fwd, "m"), b.share(fwd, "damp")
	if b.err != nil {
		return nil, b.err
	}
	b.waveEquation(v, m, damp, -1)
	return b.model("acoustic_adjoint", []string{"v"}, fwd.CriticalDt)
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
// acoustic model through RunGradient: the forward pass records d = Fq, the
// reverse sweep back-propagates d itself (no ObsData) into q' = F'd, and
// the result's DotForward = <d,d> must equal DotAdjoint = <q,q'>. The
// configuration is engineered so that every floating-point operation is
// exact in float32 storage — second-order stencil (integer Laplacian
// weights), dt = 1 with m = 2 (dyadic update coefficient 1/2, marginally
// stable), no absorbing layer, on-grid source/receivers and a dyadic
// wavelet — so any structural error in the adjoint (a wrong time offset,
// scale or stencil asymmetry) shows up as an O(1) RelErr while a correct
// transpose yields ~0, far below the 1e-8 gate that float32 rounding noise
// would otherwise drown.
//
// c is the calling rank of the world to certify on under halo pattern mode
// (nil, or a world of one: serial); engine names the execution engine of
// all three operators ("" is the default).
func RunDotTest(c *mpi.Comm, mode halo.Mode, engine string) (*GradientResult, error) {
	m, ctx, err := dotTestModel(c, mode)
	if err != nil {
		return nil, err
	}
	gc := dotTestConfig()
	gc.Engine = engine
	return RunGradient(m, ctx, gc)
}

// dotTestModel builds the certification's exact-arithmetic acoustic model
// on the calling rank of c (nil: serial): 24x24, second order, no
// absorbing layer, m = 2, which keeps the update coefficient dt^2/m = 1/2
// exactly dyadic and the scheme marginally stable (|2 + lambda_L/2| <= 2
// in 2-D).
func dotTestModel(c *mpi.Comm, mode halo.Mode) (*Model, *core.Context, error) {
	m, ctx, err := OnRank(c, "acoustic", Config{Shape: []int{24, 24}, SpaceOrder: 2, NBL: 0, Velocity: 1}, mode, nil)
	if err != nil {
		return nil, nil, err
	}
	fillConst(m.Fields["m"], 2)
	return m, ctx, nil
}

// dotTestConfig is the certification's exact gradient configuration for
// dotTestModel: dt = 1, a dyadic wavelet and an on-grid source and
// receivers. Its checkpoint interval, 3, takes snapshots at steps 0 and 3
// and re-integrates step 1 from the first, so the certification runs the
// restore and the recompute too; the gradient does not depend on the
// interval (TestGradientCheckpointInvariance).
func dotTestConfig() GradientConfig {
	return GradientConfig{
		NT: 8, DT: 1, CheckpointInterval: 3,
		Wavelet:        []float32{1, -2, 1},
		SourceCoords:   []float64{12, 12},
		ReceiverCoords: [][]float64{{6, 5}, {11, 9}, {15, 14}, {17, 16}},
	}
}
