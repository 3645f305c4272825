package propagators

import (
	"fmt"
	"math"

	"devigo/internal/checkpoint"
	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/mpi"
	"devigo/internal/opcache"
	"devigo/internal/sparse"
)

// RunConfig drives a forward simulation of a model.
type RunConfig struct {
	// NT is the number of timesteps (at least 1).
	NT int
	// DT overrides the critical timestep (0 keeps CriticalDt; any other
	// value must be positive and finite).
	DT float64
	// NReceivers is the receiver line length (0 disables receivers; a
	// line has two ends, so 1 is an error — place a single receiver with
	// ReceiverCoords).
	NReceivers int
	// ReceiverCoords overrides the default ReceiverLine placement; when
	// set, NReceivers is ignored.
	ReceiverCoords [][]float64
	// SourceCoords overrides the default centre source.
	SourceCoords []float64
	// Wavelet overrides the Ricker source signature (one amplitude per
	// timestep; shorter slices are zero-extended).
	Wavelet []float32
	// Exec configures the operator.
	Exec
}

// Exec holds the executor knobs every driver forwards to the operators it
// compiles and applies.
type Exec struct {
	// Workers sizes the executor's worker team (0 consults
	// DEVIGO_WORKERS).
	Workers int
	// TimeTile requests the halo-exchange interval k (deep halos exchanged
	// once every k steps, bit-exact vs k=1); 0 consults DEVIGO_TIME_TILE.
	TimeTile int
	// Engine selects the execution engine ("" = core default).
	Engine string
	// Autotune selects the self-configuration policy forwarded to
	// core.ApplyOpts.Autotune: "search" or "off" ("" consults
	// DEVIGO_AUTOTUNE).
	Autotune string
}

// options returns the construction options of an operator named name,
// lowering through cache when it is not nil (see core.Options.Cache).
func (e Exec) options(name string, cache *opcache.Cache) *core.Options {
	return &core.Options{Name: name, Workers: e.Workers, TimeTile: e.TimeTile,
		Engine: e.Engine, Cache: cache}
}

// RunResult carries the outputs of a forward run.
type RunResult struct {
	// NT is the executed step count and DT the timestep used.
	NT int
	DT float64
	// Receivers holds the recorded traces, NT x NReceivers.
	Receivers [][]float64
	// Norm is the L2 norm of the first wavefield's final state over the
	// global domain (all-reduced under DMP) — the cross-run checksum.
	Norm float64
	// Perf reports the operator's section timings.
	Perf core.Perf
	// Op exposes the compiled operator (generated code, schedule).
	Op *core.Operator
}

// Run compiles the model into an operator and executes a forward
// simulation with a Ricker point source and an optional receiver line.
// ctx may be nil (serial) or carry one rank of an MPI world.
func Run(m *Model, ctx *core.Context, rc RunConfig) (*RunResult, error) {
	return run(m, ctx, rc, nil)
}

// run is Run lowering its operator through an operator cache (nil lowers
// privately).
func run(m *Model, ctx *core.Context, rc RunConfig, cache *opcache.Cache) (*RunResult, error) {
	dt, err := stepDT("RunConfig.DT", rc.DT, m.CriticalDt)
	if err != nil {
		return nil, err
	}
	nt := rc.NT
	if nt < 1 {
		return nil, fmt.Errorf("propagators: RunConfig needs NT >= 1, got %d", nt)
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, rc.options(m.Name, cache))
	if err != nil {
		return nil, err
	}

	srcs, err := buildSources(m, &rc, dt, nt)
	if err != nil {
		return nil, err
	}
	return forward(m, ctx, op, srcs, rc.Autotune, nil, nt, dt)
}

// stepDT resolves a configured timestep: 0 means the model's critical
// dt, a positive finite value is used as given, and anything else is an
// error naming the field.
func stepDT(name string, dt, critical float64) (float64, error) {
	if dt == 0 {
		return critical, nil
	}
	if !(dt > 0) || math.IsInf(dt, 1) {
		return 0, fmt.Errorf("propagators: %s must be a positive finite timestep (0 = the critical dt), got %v", name, dt)
	}
	return dt, nil
}

// forward steps a compiled model nt times, injecting srcs' source and
// sampling its receivers after every step. When store is not nil it keeps
// what the reverse sweep reads back (checkpoint.TailLevel): the levels of
// the last k steps, which the sweep then never recomputes (k+2 at most,
// the cache's bound), and a snapshot of every multiple of k below them.
// Receivers are sampled rank-locally into one nt×nrec table, and a
// distributed run reduces it once, after the last step, as it does the
// norm: the step loop synchronises with halo neighbours only.
func forward(m *Model, ctx *core.Context, op *core.Operator, srcs *sourceSetup,
	autotune string, store *checkpoint.Store, nt int, dt float64) (*RunResult, error) {
	res := &RunResult{NT: nt, DT: dt, Op: op}
	// keep takes what store keeps of the state ready for step t.
	var keep func(t int)
	if store != nil {
		if ctx != nil {
			store.Rank = ctx.Comm.Rank()
		}
		tail := checkpoint.TailLevel(nt, store.Interval)
		keep = func(t int) {
			if t <= tail {
				store.SaveIfDue(t)
			}
			if t >= tail {
				store.RecordLevel(t)
			}
		}
		if tail < 0 {
			store.RecordLevel(-1)
		}
		keep(0)
	}
	var traces []float64
	nrec := 0
	if srcs.rec != nil {
		nrec = srcs.rec.NPoints()
		traces = make([]float64, nt*nrec)
	}
	u := m.Fields[m.WaveFields[0]]
	var hook firstErr
	postStep := func(t int) {
		hook.keep(srcs.inject(m, t, op.InjectDepth()))
		if srcs.rec != nil {
			copy(traces[t*nrec:], srcs.rec.Interpolate(u, t+1, nil))
		}
		if keep != nil {
			keep(t + 1)
		}
	}
	if err := op.Apply(&core.ApplyOpts{
		TimeM:    0,
		TimeN:    nt - 1,
		Syms:     map[string]float64{"dt": dt},
		PostStep: postStep,
		Autotune: autotune,
	}); err != nil {
		return nil, err
	}
	if hook.err != nil {
		return nil, hook.err
	}
	if srcs.rec != nil {
		traces = sumRanks(ctx, traces)
		res.Receivers = make([][]float64, nt)
		for t := range res.Receivers {
			res.Receivers[t] = traces[t*nrec : (t+1)*nrec : (t+1)*nrec]
		}
	}
	res.Perf = op.Report()
	res.Norm = normOf(u, ctx, nt)
	return res, nil
}

// backward steps a compiled adjoint model through one reverse Apply over
// t = nt..1, nt = len(data): iteration t writes the adjoint state into
// buffer t-1, injects data[t-1] there through srcs' receivers (mirrored
// into the ghost shell under time tiling), samples srcs' source position
// rank-locally into traces[t-1] (forward-time order) and then calls after
// with t. A distributed run reduces the traces once, after the Apply, so
// the hook issues no collective. The first error stops all further hook
// work and is returned once the Apply ends.
func backward(adj *Model, ctx *core.Context, op *core.Operator, srcs *sourceSetup,
	data [][]float64, dt float64, autotune string, after func(t int) error) ([]float64, error) {
	traces := make([]float64, len(data))
	v := adj.Fields[adj.WaveFields[0]]
	vals := make([]float32, srcs.rec.NPoints())
	var hook firstErr
	postStep := func(t int) {
		if hook.err != nil {
			return
		}
		for r, d := range data[t-1] {
			vals[r] = float32(d) * srcs.scale
		}
		if err := srcs.rec.InjectDeep(v, t-1, vals, op.InjectDepth()); err != nil {
			hook.keep(fmt.Errorf("propagators: %s: receiver injection at step %d: %w", adj.Name, t, err))
			return
		}
		traces[t-1] = srcs.src.Interpolate(v, t-1, nil)[0]
		if err := after(t); err != nil {
			hook.keep(fmt.Errorf("propagators: %s: reverse step %d: %w", adj.Name, t, err))
		}
	}
	if err := op.Apply(&core.ApplyOpts{
		TimeM:    1,
		TimeN:    len(data),
		Reverse:  true,
		Syms:     map[string]float64{"dt": dt},
		PostStep: postStep,
		Autotune: autotune,
	}); err != nil {
		return nil, err
	}
	if hook.err != nil {
		return nil, hook.err
	}
	return sumRanks(ctx, traces), nil
}

// firstErr keeps the first error a PostStep hook hits. The hook cannot
// return one, so its caller checks err right after the Apply that ran it.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if f.err == nil {
		f.err = err
	}
}

// sourceSetup bundles the sparse source/receiver machinery of a run so
// the checkpointed reverse sweep can replay the forward integration
// bit-exactly (same wavelet, same injection scale, same coordinates).
type sourceSetup struct {
	src     *sparse.SparseFunction
	rec     *sparse.SparseFunction
	wavelet []float32
	scale   float32
}

// buildSources resolves the source/receiver configuration of a run.
func buildSources(m *Model, rc *RunConfig, dt float64, nt int) (*sourceSetup, error) {
	srcCoords := rc.SourceCoords
	if srcCoords == nil {
		srcCoords = CenterSource(m.Grid)
	}
	src, err := sparse.New("src", m.Grid, [][]float64{srcCoords})
	if err != nil {
		return nil, err
	}
	wavelet := rc.Wavelet
	if wavelet == nil {
		// Aim for ~8 points per wavelength: with the CFL relation
		// dt_c = C*h/v, v/h = C/dt_c, so f0 = (C/8)/dt_c ~ 0.05/dt_c.
		f0 := 0.05 / m.CriticalDt
		wavelet = sparse.RickerWavelet(f0, 1.5/f0, dt, nt)
	}

	var rec *sparse.SparseFunction
	switch {
	case rc.ReceiverCoords != nil:
		rec, err = sparse.New("rec", m.Grid, rc.ReceiverCoords)
	case rc.NReceivers == 1:
		return nil, fmt.Errorf("propagators: NReceivers=1 is not a line; place a single receiver with ReceiverCoords")
	case rc.NReceivers > 1:
		rec, err = sparse.New("rec", m.Grid, ReceiverLine(m.Grid, rc.NReceivers))
	}
	if err != nil {
		return nil, err
	}
	return &sourceSetup{src: src, rec: rec, wavelet: wavelet, scale: injectionScale(m, dt)}, nil
}

// injectionScale is the source scaling convention: second-order-in-time
// models inject dt^2/m (Devito convention); first-order systems inject dt.
func injectionScale(m *Model, dt float64) float32 {
	first := m.Fields[m.WaveFields[0]]
	if len(first.Bufs) == 3 {
		// dt^2 / m with the homogeneous m of the model builders.
		mval := m.Fields["m"].AtDomain(0, make([]int, m.Grid.NDims())...)
		return float32(dt * dt / float64(mval))
	}
	return float32(dt)
}

// inject adds the step-t source sample into the freshly written buffer
// t+1 of every source field. depth mirrors the injection into the ghost
// region (core.Operator.InjectDepth) so time-tiled shell recompute
// observes neighbour injections bit-exactly; nil injects owned points
// only, the classic k=1 behaviour.
func (s *sourceSetup) inject(m *Model, t int, depth []int) error {
	var amp float32
	if t >= 0 && t < len(s.wavelet) {
		amp = s.wavelet[t]
	}
	val := []float32{amp * s.scale}
	for _, fname := range m.SourceFields {
		if err := s.src.InjectDeep(m.Fields[fname], t+1, val, depth); err != nil {
			return fmt.Errorf("propagators: %s: source injection into %s at step %d: %w", m.Name, fname, t, err)
		}
	}
	return nil
}

// sumRanks sums vals over the ranks of a distributed run, in ascending
// rank order (mpi.Comm.Allreduce); serially it returns vals.
func sumRanks(ctx *core.Context, vals []float64) []float64 {
	if ctx == nil {
		return vals
	}
	return ctx.Comm.Allreduce(vals, mpi.OpSum)
}

// normOf computes the global L2 norm of a field's DOMAIN at time buffer t
// (all-reduced under DMP).
func normOf(f *field.Function, ctx *core.Context, t int) float64 {
	sum := 0.0
	domainRows(f, t, func(_ []int, row []float32) {
		for _, v := range row {
			sum += float64(v) * float64(v)
		}
	})
	if ctx != nil {
		sum = ctx.Comm.AllreduceScalar(sum, mpi.OpSum)
	}
	return math.Sqrt(sum)
}

// Build constructs a model by name — the dispatch used by the CLI tools
// and benchmarks.
func Build(name string, cfg Config) (*Model, error) {
	for _, m := range models {
		if m.name == name {
			return m.build(cfg)
		}
	}
	return nil, fmt.Errorf("propagators: unknown model %q", name)
}

// models is the table Build and ModelNames read: the four evaluated
// kernels in paper order.
var models = []struct {
	name  string
	build func(Config) (*Model, error)
}{{"acoustic", Acoustic}, {"elastic", Elastic}, {"tti", TTI}, {"viscoelastic", Viscoelastic}}

// ModelNames lists the four evaluated kernels in paper order.
func ModelNames() []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.name
	}
	return names
}
