// Package core implements the devigo Operator: the compiler driver that
// lowers symbolic equations through the Cluster and IET IRs, generates
// C-like source, compiles executable kernels, and applies them over serial
// or distributed (MPI) data with the selected halo-exchange pattern.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"devigo/internal/codegen"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/opcache"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// Context is one rank of a distributed run: its world, the Cartesian
// communicator and decomposition its fields live on, and the halo pattern
// that exchanges them. NewContext builds it; a serial run is a nil
// context, never a decomposed one.
type Context struct {
	Comm   *mpi.Comm
	Cart   *mpi.CartComm
	Decomp *grid.Decomposition
	Mode   halo.Mode
}

// NewContext is the one constructor of a distributed context: it checks
// that mode exchanges (basic, diag or full) and that dec tiles c's world,
// then builds the Cartesian communicator on dec's topology. A nil c or a
// world of one is serial, a nil context: no grid is decomposed without
// being exchanged.
func NewContext(c *mpi.Comm, dec *grid.Decomposition, mode halo.Mode) (*Context, error) {
	if c == nil || c.Size() == 1 {
		return nil, nil
	}
	if err := checkWorld(c.Size(), dec, mode); err != nil {
		return nil, err
	}
	cart, err := mpi.CartCreate(c, dec.Topology, nil)
	if err != nil {
		return nil, err
	}
	return &Context{Comm: c, Cart: cart, Decomp: dec, Mode: mode}, nil
}

// check holds a context handed to NewOperator, a literal included, to
// what NewContext builds.
func (c *Context) check() error {
	switch {
	case c == nil:
		return nil
	case c.Comm == nil || c.Comm.Size() == 1:
		return fmt.Errorf("core: a context needs a world of two or more ranks; a serial run takes a nil context")
	case c.Cart == nil:
		return fmt.Errorf("core: the context of a %d-rank world has no Cartesian communicator", c.Comm.Size())
	}
	return checkWorld(c.Comm.Size(), c.Decomp, c.Mode)
}

// checkWorld reports why mode and dec cannot run an operator over a world
// of size ranks.
func checkWorld(size int, dec *grid.Decomposition, mode halo.Mode) error {
	switch {
	case mode != halo.ModeBasic && mode != halo.ModeDiagonal && mode != halo.ModeFull:
		return fmt.Errorf("core: halo mode %s cannot exchange a grid decomposed over %d ranks (want basic, diag or full; mode none runs serially only)", mode, size)
	case dec == nil || dec.NProcs() != size:
		return fmt.Errorf("core: a context over %d ranks needs a decomposition that tiles them", size)
	}
	return nil
}

// Operator is a compiled, applicable solver.
type Operator struct {
	Name   string
	Grid   *grid.Grid
	Fields map[string]*field.Function

	Schedule *ir.Schedule
	// Tree is the lowered IET for the current halo mode and exchange
	// interval: CCode prints it and Apply executes it (through prog).
	Tree  iet.Callable
	CCode string

	ctx     *Context
	kernels []ExecKernel
	// built is the un-lowered iet.Build result every (re)lowering starts
	// from; prog is Tree flattened into what Apply runs (see program.go).
	built    iet.Callable
	prog     program
	execOpts runtime.ExecOpts
	// pool is the persistent per-rank worker team (nil when serial).
	// Workers spawn once and park between dispatches; the pool survives
	// reconfiguration and is released by Close.
	pool *runtime.Pool
	// mode is the operator's own halo pattern: seeded from the context at
	// construction, switchable afterwards via reconfigure (the context is
	// shared between operators and is never mutated).
	mode halo.Mode
	// forcedWorkers records a worker count pinned through Options; the
	// autotuner never overrides an explicit user choice.
	forcedWorkers bool
	// tuned is set once the autotuner has configured the operator; later
	// Apply calls reuse the choice instead of re-tuning.
	tuned bool
	// plan is the active communication-avoiding time-tiling plan (nil =
	// exchange every step); tilePos/tileLen track the position within the
	// current tile during an Apply.
	plan    *ir.TilePlan
	tilePos int
	tileLen int
	// hasScratch records whether CIRE scratch clusters exist (they forbid
	// time tiling).
	hasScratch bool
	// tileProvisioned marks that an exchange interval > 1 was requested at
	// construction (Options.TimeTile or DEVIGO_TIME_TILE): only then does
	// the autotuner's k-axis open. Default operators keep the classic
	// exchange-every-step candidate space.
	tileProvisioned bool
	// seenHalo records every field's allocated ghost width when the program
	// and the source were last derived from the tree, so Apply can detect a
	// sibling operator growing shared storage (see ensureExchangers).
	seenHalo map[string][]int
	// shellLo/shellHi cap the ghost-shell extension per dimension per side
	// (grid points available beyond the owned box).
	shellLo, shellHi []int
	// stepExt[i] is the box extension (points beyond DOMAIN per side) for
	// step i: nonzero only for CIRE scratch clusters.
	stepExt []int
	// invariants are the hoisted loop-invariant scalars (r0 = 1/dt ...),
	// evaluated once per Apply and bound like user symbols.
	invariants []symbolic.Assignment
	// boxes is step's box scratch, allocated on the first step: the owned
	// box, then one compute box per sweep that sweepBox refills in place,
	// so a steady step allocates no boxes.
	boxes []runtime.Box
	// syms and bound are Apply's symbol table and bound kernel arguments,
	// refilled in place by every call.
	syms  map[string]float64
	bound [][]float64
	// hoisted lists the kernels with time-invariant segments (see
	// hoist.go), reach is the box scratch their priming sweeps fill, and
	// primed is set while an Apply's priming is in force.
	hoisted []hoisted
	reach   runtime.Box
	primed  bool

	perf Perf
}

// Perf accumulates per-section timing, the devigo analogue of
// DEVITO_LOGGING=BENCH output. ComputeSeconds/HaloSeconds/WallSeconds/
// PointsUpdated/Timesteps cover steady-state execution only: autotune
// warmup and search trials are left out so rate figures are not diluted
// by the one-off self-configuration cost.
type Perf struct {
	ComputeSeconds float64
	HaloSeconds    float64
	// WallSeconds is the wall-clock of Apply's preamble, priming and step
	// loop: the compute and halo sections plus everything between them,
	// the PostStep hooks included.
	WallSeconds   float64
	PointsUpdated int64
	Timesteps     int
	FlopsPerPoint int
	// Engine names the execution engine the kernels compiled to
	// (EngineBytecode, EngineNative or EngineInterpreter).
	Engine string
}

// GPtss returns this rank's steady-state sweep rate in gigapoints per
// second (autotune warmup/trial steps are excluded). It is rank-local and
// redundant-inclusive: PointsUpdated counts every point of every swept box
// on this rank — owned points, time-tile ghost shells and CIRE extensions
// alike — and the divisor is this rank's own seconds, so it is neither a
// global figure nor a count of useful work (that is global grid points x
// steps over the slowest rank's seconds; devigo-run and bench/ report it).
// It is robust to partially populated counters: a NaN or negative section
// time (a clock glitch, or a caller that only filled one
// of the two sections) contributes zero rather than poisoning the result.
func (p Perf) GPtss() float64 {
	c, h := p.ComputeSeconds, p.HaloSeconds
	if math.IsNaN(c) || c < 0 {
		c = 0
	}
	if math.IsNaN(h) || h < 0 {
		h = 0
	}
	total := c + h
	if total <= 0 || p.PointsUpdated <= 0 {
		return 0
	}
	return float64(p.PointsUpdated) / total / 1e9
}

// Options tunes operator construction.
type Options struct {
	// Name labels the generated kernel (default "Kernel").
	Name string
	// Workers is the simulated thread count for loop execution. The
	// DEVIGO_WORKERS environment variable applies when unset (0); both
	// count as forced — the autotuner never overrides an explicit choice.
	Workers int
	// Engine selects the execution engine: EngineNative (the default and
	// the production engine), or one of its two oracles, EngineBytecode
	// and EngineInterpreter.
	Engine string
	// TimeTile is the requested halo-exchange interval k: ghost regions
	// are exchanged k·radius deep once every k timesteps and the shrinking
	// ghost shell is recomputed redundantly in between — bit-exact versus
	// k=1. The compiler clamps to the largest legal interval (falling back
	// to 1 for untileable schedules and serial contexts). 0 consults the
	// DEVIGO_TIME_TILE environment variable, then defaults to 1.
	TimeTile int
	// Cache attaches an operator cache: the lowered schedule is stored and
	// fetched under a hash of the equations and the fields' storage facts,
	// so operators built from the same equations — the shots of a survey —
	// run the symbolic front-end once. Every operator compiles its own
	// kernels either way. Nil (the default) lowers privately.
	Cache *opcache.Cache
}

// NewOperator compiles equations against field storage. fields must hold
// every function referenced. ctx is nil for serial execution; any other
// context must be one NewContext would build.
func NewOperator(eqs []symbolic.Eq, fields map[string]*field.Function, g *grid.Grid, ctx *Context, opts *Options) (*Operator, error) {
	if err := ctx.check(); err != nil {
		return nil, err
	}
	obs.EnvSetup()
	var o Options
	if opts != nil {
		o = *opts
	}
	name := cmp.Or(o.Name, "Kernel")
	engine, err := resolveEngine(o.Engine)
	if err != nil {
		return nil, err
	}
	tileReq, err := resolveTimeTile(o.TimeTile)
	if err != nil {
		return nil, err
	}
	workersReq, err := ResolveWorkers(o.Workers)
	if err != nil {
		return nil, err
	}
	nd := g.NDims()

	// Lowering, up to the lowered tree, its program and its C, is one
	// span; kernel compilation is the next.
	lowerSpan := obs.Begin(ctx.rank(), obs.PhaseLower, -1)

	// The symbolic front-end reads only the equations and the fields'
	// storage facts, so an attached cache shares its result between every
	// operator built from the same equations. Each operator then allocates
	// its own CIRE scratch storage and compiles its own kernels.
	fe, err := frontEndFor(o.Cache, eqs, fields, nd)
	if err != nil {
		return nil, err
	}
	if err := allocScratch(fe.scratch, fields, g, ctx); err != nil {
		return nil, err
	}
	sched := fe.sched

	op := &Operator{
		Name:     name,
		Grid:     g,
		Fields:   fields,
		Schedule: sched,
		built:    iet.Build(name, sched),
		ctx:      ctx,
		stepExt:  fe.stepExt,
		shellLo:  make([]int, nd),
		shellHi:  make([]int, nd),
	}
	op.perf.Engine = engine
	op.hasScratch = len(fe.scratch) > 0
	if ctx != nil {
		// A serial operator's mode stays the zero value, halo.ModeNone.
		op.mode = ctx.Mode
		op.shellLo, op.shellHi = ctx.Decomp.ShellCaps(ctx.Comm.Rank())
	}
	// Communication-avoiding time tiling: adopt the largest legal exchange
	// interval <= the requested one and deepen ghost storage to hold the
	// exchanged region and the redundant shell writes. Untileable schedules
	// (CIRE scratch, multi-writer fields) and serial contexts fall back to
	// the classic one-exchange-per-step schedule.
	op.tileProvisioned = tileReq > 1
	op.plan = op.tilePlan(tileReq, false)
	if op.plan != nil {
		for name, alloc := range op.plan.Alloc {
			if f, ok := op.Fields[name]; ok {
				f.GrowHalo(alloc)
			}
		}
	}
	op.execOpts.TileRows = runtime.TileRows
	op.execOpts.Workers = workersReq
	op.forcedWorkers = workersReq > 0
	op.lower()
	lowerSpan.End()

	// Compile one kernel per cluster from the *optimized* IET form (CSE
	// temporaries become per-point registers; hoisted invariants are
	// evaluated once per Apply), recording the extended compute box of
	// scratch-producing steps.
	compileSpan := obs.Begin(op.ctx.rank(), obs.PhaseCompile, -1)
	var nests []iet.LoopNest
	iet.Walk(op.built, func(n iet.Node) {
		switch v := n.(type) {
		case iet.LoopNest:
			nests = append(nests, v)
		case iet.ScalarAssign:
			op.invariants = append(op.invariants, symbolic.Assignment{Name: v.Name, Value: v.Value})
		}
	})
	if len(nests) != len(sched.Steps) {
		return nil, fmt.Errorf("core: internal: %d nests for %d steps", len(nests), len(sched.Steps))
	}
	op.kernels = make([]ExecKernel, len(nests))
	for i, n := range nests {
		if op.kernels[i], err = compileStep(engine, n, fields); err != nil {
			return nil, err
		}
		op.perf.FlopsPerPoint += op.kernels[i].FlopsPerPoint()
	}
	op.planHoist()
	compileSpan.End()
	if obs.Active() {
		instrs := 0
		for _, k := range op.kernels {
			instrs += k.InstrsPerPoint()
		}
		obs.Add(op.ctx.rank(), obs.CtrInstrsPerPoint, int64(instrs))
	}
	return op, nil
}

// rank is the context's rank in its world (0 when serial), which also
// names its recorder in the obs subsystem.
func (c *Context) rank() int {
	if c != nil {
		return c.Comm.Rank()
	}
	return 0
}

// ensurePool reconciles the persistent worker team with the operator's
// current worker count: it spawns a team when more than one worker is
// configured, resizes by replacing a mismatched or closed team, and
// releases the team when the operator
// drops back to serial. Called at the head of every Apply and after every
// autotune adoption — the pool itself survives reconfigure untouched (it
// never changes the worker count).
func (op *Operator) ensurePool() {
	w := op.execOpts.Workers
	if w <= 1 {
		op.Close()
		return
	}
	if op.pool == nil || op.pool.Closed() || op.pool.Workers() != w {
		op.Close()
		op.pool = runtime.NewPool(w, op.ctx.rank())
	}
	op.execOpts.Pool = op.pool
}

// Close releases the operator's persistent worker team (its parked
// goroutines exit). Idempotent and safe on serial operators; a later
// Apply respawns the team on demand.
func (op *Operator) Close() {
	if op.pool != nil {
		op.pool.Close()
		op.pool = nil
		op.execOpts.Pool = nil
	}
}

// Pool exposes the operator's persistent worker team (nil when serial) —
// benchmarks read its dispatch counters.
func (op *Operator) Pool() *runtime.Pool { return op.pool }

// ensureExchangers re-derives what depends on the fields' ghost widths
// when another operator sharing this one's fields has grown their storage
// since (a gradient run interleaves forward, adjoint and imaging operators
// over shared parameter fields): the exchangers preallocated their regions
// at the old widths, and the generated source indexes every access by
// them.
func (op *Operator) ensureExchangers() {
	for name, rec := range op.seenHalo {
		if !slices.Equal(op.Fields[name].Halo, rec) {
			op.flatten()
			op.emitCode()
			return
		}
	}
}

// emitCode regenerates the C-like source for inspection and golden tests
// from the operator's current IET.
func (op *Operator) emitCode() {
	em := &codegen.Emitter{Halo: map[string][]int{}, TimeBufs: map[string]int{}}
	op.seenHalo = map[string][]int{}
	for n, f := range op.Fields {
		em.Halo[n] = f.Halo
		em.TimeBufs[n] = len(f.Bufs)
		op.seenHalo[n] = slices.Clone(f.Halo)
	}
	op.CCode = em.EmitC(op.Tree)
}

// reconfigure re-lowers the operator onto a halo-exchange pattern and
// exchange interval: the largest legal interval <= k whose plan fits the
// ghost storage allocated at construction is adopted (1 when none does),
// and the tree, the program with its exchangers and the generated source
// are re-derived from the built IET. Storage never grows here. Compiled
// kernels survive — the per-point programs are identical across modes
// and intervals, which is why switching (even between timesteps, as the
// search autotuner does) never changes results. Only a distributed
// operator reconfigures.
func (op *Operator) reconfigure(mode halo.Mode, k int) error {
	if k < 1 {
		return fmt.Errorf("core: %s: exchange interval must be >= 1, got %d", op.Name, k)
	}
	cur := op.TimeTile()
	plan := op.tilePlan(k, true)
	newK := 1
	if plan != nil {
		newK = plan.K
	}
	if mode == op.mode && newK == cur {
		return nil
	}
	op.mode = mode
	op.plan = plan
	op.tilePos = 0
	op.lower()
	if plan != nil && newK != cur {
		// A switch can happen mid-run (the search autotuner reconfigures
		// between timesteps), after Apply's preamble already ran — refresh
		// the time-invariant ghosts at the new depths right away. The
		// exchanges are collective, and every rank adopts configurations in
		// lockstep, so this cannot deadlock or skew. The invariant chains
		// of an Apply in flight read those ghosts, so they run again.
		op.runPreamble()
		if op.primed {
			op.primeInvariants(op.anyField().LocalShape)
		}
	}
	return nil
}

// Mode reports the operator's current halo-exchange pattern.
func (op *Operator) Mode() halo.Mode { return op.mode }

// ApplyOpts configures an operator application.
type ApplyOpts struct {
	// TimeM and TimeN are the inclusive logical timestep bounds (the
	// update writing t+1 runs for t in [TimeM, TimeN]).
	TimeM, TimeN int
	// Reverse runs the time loop from TimeN down to TimeM — the schedule
	// of time-reversed (adjoint) operators, whose clusters write the
	// backward stencil u[t-1]. Halo exchanges, overlap mode and the
	// PostStep hook all see the descending logical step.
	Reverse bool
	// Syms binds scalar symbols (dt is mandatory for time-dependent
	// kernels; spacings default from the grid).
	Syms map[string]float64
	// PostStep runs after each timestep's clusters (source injection,
	// receiver interpolation). It must not write a field the operator's
	// kernels only read and that has a single buffer (a model parameter
	// such as m or damp): Apply exchanges such fields' ghosts, and runs
	// the chains that read only them, once, before the first step.
	PostStep func(t int)
	// Autotune selects the self-configuration policy: "off" (default) or
	// "search" (rank the halo mode, worker count and exchange interval
	// with the cost model, time its shortlist on the first few real
	// timesteps and keep the measured winner — sound because every
	// candidate configuration is bit-exact; with too few timesteps for a
	// trial, adopt the model's top choice). An empty string consults the
	// DEVIGO_AUTOTUNE environment variable. The choice sticks to the
	// operator: later Apply calls reuse it instead of re-tuning.
	Autotune string
}

// Apply runs the operator. It is deterministic: identical inputs produce
// identical outputs for a fixed context/mode.
func (op *Operator) Apply(a *ApplyOpts) error {
	if a == nil {
		a = &ApplyOpts{}
	}
	// The symbol table and the bound kernel arguments live only for this
	// call, so their storage is the operator's, reused by the next Apply.
	if op.syms == nil {
		op.syms = map[string]float64{}
	}
	clear(op.syms)
	syms := op.syms
	for d, name := range op.Grid.SpacingSymbols() {
		syms[name] = op.Grid.Spacing(d)
	}
	for k, v := range a.Syms {
		syms[k] = v
	}
	// Evaluate the hoisted invariants (in order, so later ones may use
	// earlier ones) and bind them like user symbols.
	for _, inv := range op.invariants {
		v := symbolic.Eval(inv.Value, &symbolic.Env{Syms: syms})
		if v != v { // NaN: an unbound symbol feeds this invariant
			return fmt.Errorf("core: %s: invariant %s references an unbound symbol", op.Name, inv.Name)
		}
		syms[inv.Name] = v
	}
	if len(op.bound) != len(op.kernels) {
		op.bound = make([][]float64, len(op.kernels))
	}
	bound := op.bound
	for i, k := range op.kernels {
		b, err := k.BindSymsInto(bound[i], syms)
		if err != nil {
			return fmt.Errorf("core: %s: %w", op.Name, err)
		}
		bound[i] = b
	}

	// Stale-geometry guard before any exchange: a sibling operator may
	// have deepened shared fields' ghost storage since our exchangers
	// preallocated their regions.
	op.ensureExchangers()
	// Spawn (or resize) the persistent worker team before the first
	// dispatch; a Close between Applies is undone here.
	op.ensurePool()

	wall := time.Now()
	op.runPreamble()
	rank := op.ctx.rank()

	anyField := op.anyField()
	if anyField == nil {
		return fmt.Errorf("core: operator has no fields")
	}
	localShape := anyField.LocalShape

	remaining := a.TimeN - a.TimeM + 1
	if remaining < 0 {
		remaining = 0
	}
	// A priming sweep runs the invariant chains as often as one step
	// does, so only an Apply of two steps or more gains from it.
	if remaining >= 2 {
		op.primeInvariants(localShape)
		defer op.unprimeInvariants()
	}
	op.tilePos = 0
	step := func(t int) {
		op.step(t, bound, localShape, remaining)
		if a.PostStep != nil {
			a.PostStep(t)
		}
		op.perf.Timesteps++
	}
	dir, next := 1, a.TimeM
	if a.Reverse {
		dir, next = -1, a.TimeN
	}
	policy, err := resolveAutotune(a.Autotune)
	if err != nil {
		return err
	}
	if policy != AutotuneOff && !op.tuned {
		// Warmup and trial steps execute real physics but must not dilute
		// the steady-state counters (GPtss): restore them around tuning.
		before := op.perf
		tuneStart := time.Now()
		if err := op.autotune(step, &next, &remaining, dir); err != nil {
			return err
		}
		wall = wall.Add(time.Since(tuneStart))
		op.perf.ComputeSeconds = before.ComputeSeconds
		op.perf.HaloSeconds = before.HaloSeconds
		op.perf.Timesteps = before.Timesteps
		op.perf.PointsUpdated = before.PointsUpdated
	}
	obs.Add(rank, obs.CtrSteadySteps, int64(remaining))
	for ; remaining > 0; remaining-- {
		step(next)
		next += dir
	}
	op.perf.WallSeconds += time.Since(wall).Seconds()
	return nil
}

func (op *Operator) anyField() *field.Function {
	for _, st := range op.Schedule.Steps {
		for _, e := range st.Cluster.Eqs {
			lhs := e.LHS.(symbolic.Access)
			if f, ok := op.Fields[lhs.Fun.Name]; ok {
				return f
			}
		}
	}
	for _, f := range op.Fields {
		return f
	}
	return nil
}

// Report returns the accumulated performance counters.
func (op *Operator) Report() Perf { return op.perf }

// ResetPerf clears the performance counters, preserving the compile-time
// facts (flop cost, engine).
func (op *Operator) ResetPerf() {
	op.perf = Perf{FlopsPerPoint: op.perf.FlopsPerPoint, Engine: op.perf.Engine}
}

// Engine reports which execution engine the operator compiled to.
func (op *Operator) Engine() string { return op.perf.Engine }

// Kernels returns the operator's compiled per-step kernels. The slice is
// the operator's own — callers (the opcode/run-shape conformance tests)
// must treat it as read-only.
func (op *Operator) Kernels() []ExecKernel { return op.kernels }

func fullBox(shape []int) runtime.Box {
	b := runtime.Box{Lo: make([]int, len(shape)), Hi: make([]int, len(shape))}
	copy(b.Hi, shape)
	return b
}

// coreBox returns the CORE box of the full pattern: the points of the
// owned box whose stencil never reads exchanged halo data (empty
// dimensions clamp).
func coreBox(shape, radius []int) runtime.Box {
	nd := len(shape)
	core := runtime.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	for d := 0; d < nd; d++ {
		core.Lo[d] = radius[d]
		core.Hi[d] = shape[d] - radius[d]
		if core.Hi[d] < core.Lo[d] {
			core.Hi[d] = core.Lo[d]
		}
	}
	return core
}
