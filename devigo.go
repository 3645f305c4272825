// Package devigo is a Devito-style symbolic stencil DSL and compiler for
// finite-difference solvers with automated distributed-memory parallelism,
// reproducing "Automated MPI-X code generation for scalable
// finite-difference solvers" (Bisbas et al., arXiv:2312.13094).
//
// Users express PDE updates symbolically over grids and discrete
// functions; the compiler lowers them through a cluster IR (dependence
// analysis, halo detection, flop reduction) and an iteration/expression
// tree (HaloSpot optimisation, mode-specific lowering) into executable
// kernels plus C-like source, and runs them serially or over an
// in-process MPI runtime with the basic, diagonal or full (overlapped)
// halo-exchange pattern — with zero changes to user code:
//
//	g, _ := devigo.NewGrid([]int{4, 4}, []float64{2, 2})
//	u, _ := devigo.NewTimeFunction("u", g, 2, 1)
//	u.Data().SetSlice(0, []devigo.Slice{devigo.SliceRange(1, -1), devigo.SliceRange(1, -1)}, 1)
//	upd, _ := devigo.Solve(devigo.Eq(u.Dt(), u.Laplace()), u.Forward())
//	op, _ := devigo.NewOperator(g, devigo.Assign(u.Forward(), upd))
//	op.Apply(devigo.ApplyConfig{TimeM: 0, TimeN: 0, DT: dt})
//
// # Execution engines
//
// Operators execute through the native engine (internal/native). Each
// loop nest first compiles to flat register bytecode (internal/bytecode):
// duplicate stencil reads load once, and loop-invariant scalars (including
// 1/dt-style reciprocals) are folded at compile time or evaluated once per
// Apply. The native engine re-lowers every instruction of that bytecode
// into one run of fused links per kernel, executed 16 points at a time
// with the accumulators in registers (generated AVX handlers on amd64,
// equivalent pure Go elsewhere). The bytecode engine's row-sweep VM and
// the expression-tree interpreter (internal/runtime) stay as its oracles,
// selected by core.Options.Engine inside this module: all three are
// bit-exact, producing identical float32 fields for identical inputs,
// serially and under any DMP mode.
package devigo

import (
	"fmt"
	"math"

	"devigo/internal/core"
	"devigo/internal/ddata"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/symbolic"
)

// Expr is a symbolic expression.
type Expr = symbolic.Expr

// Equation is a symbolic equation.
type Equation = symbolic.Eq

// Slice re-exports NumPy-style slicing for distributed data views.
type Slice = ddata.Slice

// SliceAll selects a whole dimension.
func SliceAll() Slice { return ddata.SliceAll() }

// SliceRange selects [lo, hi) with negative-index wrap-around.
func SliceRange(lo, hi int) Slice { return ddata.SliceRange(lo, hi) }

// Grid is a structured computational grid, optionally distributed over an
// MPI environment. Functions created on the grid register themselves so
// operators can resolve storage.
type Grid struct {
	g      *grid.Grid
	env    *Env
	decomp *grid.Decomposition
	fields map[string]*field.Function
}

// Env is one rank's distributed execution environment. A nil *Env (or one
// from a single-rank world) behaves serially.
type Env struct {
	comm *mpi.Comm
	mode halo.Mode
}

// DMPConfig configures a distributed run.
type DMPConfig struct {
	// Ranks is the number of MPI ranks to spawn in-process.
	Ranks int
	// Mode selects the halo-exchange pattern: "basic", "diag" or "full"
	// (DEVITO_MPI-style names accepted).
	Mode string
}

// RunDMP spawns an in-process MPI world and runs f once per rank — the
// devigo equivalent of launching the unmodified script under mpirun. The
// body receives the rank's Env; grids created through env.NewGrid are
// domain-decomposed automatically. A rank whose body returns an error (or
// panics) fails its world: its peers' pending receives fail instead of
// waiting, and RunDMP returns that rank's error, "mpi: rank r: …". After
// the world completes, any observability outputs requested through the
// environment (DEVIGO_TRACE, DEVIGO_METRICS) are flushed once for all
// ranks.
func RunDMP(cfg DMPConfig, f func(env *Env) error) error {
	mode, err := halo.ParseMode(cfg.Mode)
	if err != nil {
		return err
	}
	if err := mpi.RunRanks(cfg.Ranks, func(c *mpi.Comm) error {
		return f(&Env{comm: c, mode: mode})
	}); err != nil {
		return err
	}
	return obs.FlushEnv()
}

// Rank returns the calling rank (0 for serial environments).
func (e *Env) Rank() int {
	if e == nil || e.comm == nil {
		return 0
	}
	return e.comm.Rank()
}

// Size returns the world size (1 for serial environments).
func (e *Env) Size() int {
	if e == nil || e.comm == nil {
		return 1
	}
	return e.comm.Size()
}

// Comm exposes the underlying communicator (nil when serial).
func (e *Env) Comm() *mpi.Comm {
	if e == nil {
		return nil
	}
	return e.comm
}

// NewGrid creates a serial grid.
func NewGrid(shape []int, extent []float64) (*Grid, error) {
	g, err := grid.New(shape, extent)
	if err != nil {
		return nil, err
	}
	return &Grid{g: g, fields: map[string]*field.Function{}}, nil
}

// NewGrid creates a grid decomposed over the environment's ranks.
// topology may be nil (MPI_Dims_create default) or an explicit process
// grid (the paper's Grid(..., topology=...), Fig. 2).
func (e *Env) NewGrid(shape []int, extent []float64, topology []int) (*Grid, error) {
	g, err := grid.New(shape, extent)
	if err != nil {
		return nil, err
	}
	out := &Grid{g: g, env: e, fields: map[string]*field.Function{}}
	if e != nil && e.comm != nil {
		out.decomp, err = grid.NewDecomposition(g, e.comm.Size(), topology)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Shape returns the global grid shape.
func (g *Grid) Shape() []int { return append([]int(nil), g.g.Shape...) }

// Spacing returns the grid spacing along dimension d.
func (g *Grid) Spacing(d int) float64 { return g.g.Spacing(d) }

func (g *Grid) fieldConfig() *field.Config {
	if g.decomp == nil {
		return nil
	}
	return &field.Config{Decomp: g.decomp, Rank: g.env.comm.Rank()}
}

// Function is a discrete function over a grid's space dimensions.
type Function struct {
	f    *field.Function
	grid *Grid
}

// TimeFunction is a time-varying discrete function.
type TimeFunction struct {
	Function
	tf *field.TimeFunction
}

// NewFunction creates a space-only function (a parameter field).
func NewFunction(name string, g *Grid, spaceOrder int) (*Function, error) {
	f, err := field.NewFunction(name, g.g, spaceOrder, g.fieldConfig())
	if err != nil {
		return nil, err
	}
	g.fields[name] = f
	return &Function{f: f, grid: g}, nil
}

// NewTimeFunction creates a time-varying function with timeOrder+1
// buffers.
func NewTimeFunction(name string, g *Grid, spaceOrder, timeOrder int) (*TimeFunction, error) {
	tf, err := field.NewTimeFunction(name, g.g, spaceOrder, timeOrder, g.fieldConfig())
	if err != nil {
		return nil, err
	}
	g.fields[name] = &tf.Function
	return &TimeFunction{Function: Function{f: &tf.Function, grid: g}, tf: tf}, nil
}

// Name returns the function's name.
func (f *Function) Name() string { return f.f.Name }

// Data returns the logically-global, physically-distributed data view
// (paper Listings 2-3).
func (f *Function) Data() *ddata.Array {
	rank := 0
	if f.grid.env != nil {
		rank = f.grid.env.Rank()
	}
	return ddata.New(f.f, f.grid.decomp, rank)
}

// At builds a symbolic access u[t, x, y, ...] at the iteration point.
func (f *Function) At() Expr { return symbolic.At(f.f.Ref) }

// Shifted builds an access displaced by the given space offsets.
func (f *Function) Shifted(off ...int) Expr { return symbolic.Shifted(f.f.Ref, 0, off...) }

// Forward is u[t+1, ...] — the update target of explicit schemes.
func (f *TimeFunction) Forward() Expr { return symbolic.ForwardStencil(f.f.Ref) }

// Backward is u[t-1, ...].
func (f *TimeFunction) Backward() Expr { return symbolic.Backward(f.f.Ref) }

// Dt is the first time derivative at the function's time order.
func (f *TimeFunction) Dt() Expr { return symbolic.Dt(f.At(), f.tf.TimeOrder) }

// Dt2 is the second time derivative.
func (f *TimeFunction) Dt2() Expr { return symbolic.Dt2(f.At(), 2) }

// Dx is the first space derivative along dim at the function's space
// order.
func (f *Function) Dx(dim int) Expr { return symbolic.Dx(f.At(), dim, f.f.SpaceOrder) }

// Dx2 is the second space derivative along dim.
func (f *Function) Dx2(dim int) Expr { return symbolic.Dx2(f.At(), dim, f.f.SpaceOrder) }

// Laplace is the sum of second space derivatives — u.laplace in Devito.
func (f *Function) Laplace() Expr {
	return symbolic.Laplace(f.At(), f.f.Grid.NDims(), f.f.SpaceOrder)
}

// Expression constructors.

// Eq builds the equation lhs = rhs.
func Eq(lhs, rhs Expr) Equation { return symbolic.Eq{LHS: lhs, RHS: rhs} }

// Assign builds an update equation whose LHS must be a function access
// (typically u.Forward()).
func Assign(lhs, rhs Expr) Equation { return symbolic.Eq{LHS: lhs, RHS: rhs} }

// Solve solves eq for target, which must appear linearly — Devito's
// solve(eq, u.forward).
func Solve(eq Equation, target Expr) (Expr, error) { return symbolic.Solve(eq, target) }

// Add sums expressions.
func Add(xs ...Expr) Expr { return symbolic.NewAdd(xs...) }

// Mul multiplies expressions.
func Mul(xs ...Expr) Expr { return symbolic.NewMul(xs...) }

// Sub subtracts.
func Sub(a, b Expr) Expr { return symbolic.Sub(a, b) }

// Neg negates.
func Neg(a Expr) Expr { return symbolic.Neg(a) }

// Num builds a numeric constant.
func Num(v float64) Expr { return symbolic.Float(v) }

// Operator is a compiled solver.
type Operator struct {
	op *core.Operator
}

// NewOperator compiles the equations over the grid's registered functions.
func NewOperator(g *Grid, eqs ...Equation) (*Operator, error) {
	var ctx *core.Context
	if g.env != nil && g.env.comm != nil && g.env.comm.Size() > 1 {
		cart, err := mpi.CartCreate(g.env.comm, g.decomp.Topology, nil)
		if err != nil {
			return nil, err
		}
		ctx = &core.Context{Comm: g.env.comm, Cart: cart, Decomp: g.decomp, Mode: g.env.mode}
	}
	op, err := core.NewOperator(eqs, g.fields, g.g, ctx, nil)
	if err != nil {
		return nil, err
	}
	return &Operator{op: op}, nil
}

// ApplyConfig drives an operator application.
type ApplyConfig struct {
	// TimeM and TimeN are the inclusive timestep bounds.
	TimeM, TimeN int
	// Reverse runs the time loop from TimeN down to TimeM — the schedule
	// of adjoint operators solved for u.Backward().
	Reverse bool
	// DT is the timestep (bound to the dt symbol): it must be set to a
	// positive finite value.
	DT float64
	// PostStep runs after each timestep (source injection etc.).
	PostStep func(t int)
	// Autotune selects the self-configuration policy: "model" adopts the
	// cost model's top-ranked halo mode / worker count / tile size,
	// "search" additionally times the model's shortlist on the first few
	// timesteps and keeps the measured winner, "off" disables tuning. An
	// empty string consults the DEVIGO_AUTOTUNE environment variable, so
	// existing programs self-configure with zero code changes. All
	// candidate configurations are bit-exact: tuning never changes
	// results, only speed.
	Autotune string
}

// Apply runs the operator.
func (o *Operator) Apply(cfg ApplyConfig) error {
	if !(cfg.DT > 0) || math.IsInf(cfg.DT, 1) {
		return fmt.Errorf("devigo: ApplyConfig.DT must be a positive finite timestep, got %v", cfg.DT)
	}
	return o.op.Apply(&core.ApplyOpts{
		TimeM:    cfg.TimeM,
		TimeN:    cfg.TimeN,
		Reverse:  cfg.Reverse,
		Syms:     map[string]float64{"dt": cfg.DT},
		PostStep: cfg.PostStep,
		Autotune: cfg.Autotune,
	})
}

// GeneratedCode returns the C-like source the compiler emitted for the
// operator (paper Listing 11).
func (o *Operator) GeneratedCode() string { return o.op.CCode }

// ScheduleTree renders the compiler's schedule (paper Listing 4).
func (o *Operator) ScheduleTree() string { return o.op.Schedule.String() }

// Perf returns the BENCH-style performance counters of past applications.
func (o *Operator) Perf() core.Perf { return o.op.Report() }

// Config returns the effective execution configuration (engine, halo
// mode, workers, tile rows, autotune policy) the operator runs with —
// whatever the autotuner chose or the construction forced.
func (o *Operator) Config() core.EffectiveConfig { return o.op.Config() }
