package main

// Per-layer probes. Every number here is taken from outside the library:
// by timing calls into a package's exported functions or by reading its
// exported counters. Spans inside the program are a later issue.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"devigo/internal/bytecode"
	"devigo/internal/checkpoint"
	"devigo/internal/codegen"
	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/native"
	"devigo/internal/obs"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// timeMedian calls fn n times and returns the median wall seconds of a
// call.
func timeMedian(n int, fn func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = time.Since(t0).Seconds()
	}
	return median(v)
}

// applySyms reproduces the scalar bindings Operator.Apply hands the
// kernels: grid spacings, dt, and the hoisted invariants in order.
func applySyms(op *core.Operator, dt float64) map[string]float64 {
	syms := map[string]float64{"dt": dt}
	for d, name := range op.Grid.SpacingSymbols() {
		syms[name] = op.Grid.Spacing(d)
	}
	for _, n := range op.Tree.Body {
		if sa, ok := n.(iet.ScalarAssign); ok {
			syms[sa.Name] = symbolic.Eval(sa.Value, &symbolic.Env{Syms: syms})
		}
	}
	return syms
}

// probeKernel times the compiled kernels of a serial acoustic operator
// swept directly over the full box — no step loop, halo or PostStep —
// and reads their static per-point counts.
func probeKernel(n, so, nbl int, engine string, sweeps int, tr *tracer) (nsPerPoint float64, flops, instrs, streams int, err error) {
	m, err := propagators.Build("acoustic", propagators.Config{Shape: []int{n, n}, SpaceOrder: so, NBL: nbl, Velocity: 1.5})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name, Engine: engine, Workers: 1, TimeTile: 1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer op.Close()
	syms := applySyms(op, m.CriticalDt)
	box := runtime.Box{Lo: []int{0, 0}, Hi: []int{n, n}}
	opts := &runtime.ExecOpts{Workers: 1, TileRows: 8}
	var bound [][]float64
	for _, k := range op.Kernels() {
		b, err := k.BindSyms(syms)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		bound = append(bound, b)
		flops += k.FlopsPerPoint()
		instrs += k.InstrsPerPoint()
	}
	t := 1
	sweep := func() {
		sp := tr.begin(engine+".Kernel.Run", -1, 0)
		for i, k := range op.Kernels() {
			k.Run(t, box, bound[i], opts)
		}
		tr.end(sp)
		t++
	}
	sweep() // touch every page once
	s := timeMedian(sweeps, sweep)
	return s * 1e9 / float64(n*n), flops, instrs, op.StreamCount(), nil
}

// probeTriad is STREAM triad a = b + s*c on three float32 arrays of the
// given size, single-threaded; it returns computed GB/s (three streams,
// write-allocate traffic not counted).
func probeTriad(bytesPerArray int, tr *tracer) float64 {
	n := bytesPerArray / 4
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	const s = float32(3)
	s1 := timeMedian(5, func() {
		sp := tr.begin("host.triad", -1, 0)
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		tr.end(sp)
	})
	return 3 * float64(bytesPerArray) / s1 / 1e9
}

// withWorld runs body on every rank of a fresh in-process world and
// returns the first error; one rank means serial, body(nil).
func withWorld(ranks int, body func(c *mpi.Comm) error) error {
	if ranks == 1 {
		return body(nil)
	}
	errs := make([]error, ranks)
	if err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) { errs[c.Rank()] = body(c) }); err != nil {
		return err
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// rankContext is one rank's execution context on the default topology
// of an n x n grid.
func rankContext(c *mpi.Comm, n int, mode halo.Mode) (*core.Context, error) {
	g, err := grid.New([]int{n, n}, nil)
	if err != nil {
		return nil, err
	}
	dec, err := grid.NewDecomposition(g, c.Size(), nil)
	if err != nil {
		return nil, err
	}
	cart, err := mpi.CartCreate(c, dec.Topology, nil)
	if err != nil {
		return nil, err
	}
	return &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: mode}, nil
}

// probeComm measures the message layers under a 2-rank workload: the
// ping-pong half round trip of one 6400-float message, a scalar
// allreduce, and the workload's own halo exchange run standalone on the
// workload's wavefield (at the deep width when the problem is tiled).
func probeComm(p stepProblem, iters int, tr *tracer, out metrics) error {
	pp := make([]float64, iters)
	ar := make([]float64, iters)
	ex := make([]float64, iters)
	err := withWorld(2, func(c *mpi.Comm) error {
		var rtr *tracer
		if c.Rank() == 0 {
			rtr = tr
		}
		buf := make([]float32, 6400)
		for i := 0; i < iters; i++ {
			sp := rtr.begin("mpi.pingpong", -1, 0)
			t0 := time.Now()
			if c.Rank() == 0 {
				c.Send(1, 1, buf)
				c.Recv(1, 2, buf)
			} else {
				c.Recv(0, 1, buf)
				c.Send(0, 2, buf)
			}
			d := time.Since(t0).Seconds() / 2
			rtr.end(sp)
			if c.Rank() == 0 {
				pp[i] = d
			}
		}
		for i := 0; i < iters; i++ {
			sp := rtr.begin("mpi.AllreduceScalar", -1, 0)
			t0 := time.Now()
			c.AllreduceScalar(float64(i), mpi.OpSum)
			d := time.Since(t0).Seconds()
			rtr.end(sp)
			if c.Rank() == 0 {
				ar[i] = d
			}
		}
		sm, err := newStepModel(p, c, nil, -1, 0)
		if err != nil {
			return err
		}
		defer sm.op.Close()
		var depth []int
		if plan := sm.op.TilePlan(); plan != nil {
			depth = plan.Depth["u"]
		}
		ctx, err := rankContext(c, p.n, p.mode)
		if err != nil {
			return err
		}
		// Stream 9 keeps the probe's tags apart from the operator's own
		// exchangers, which number their streams from 0.
		x := halo.NewDepth(p.mode, ctx.Cart, sm.u, 9, depth)
		for i := 0; i < iters; i++ {
			sp := rtr.begin("halo.Exchange", -1, 0)
			t0 := time.Now()
			x.Exchange(i)
			d := time.Since(t0).Seconds()
			rtr.end(sp)
			if c.Rank() == 0 {
				ex[i] = d
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["mpi.pingpong_us"] = median(pp) * 1e6
	out["mpi.allreduce_us"] = median(ar) * 1e6
	out["halo.exchange_us"] = median(ex) * 1e6
	return nil
}

// probeSparse times one source injection and one receiver interpolation
// with a workload's own sparse functions.
func probeSparse(sm *stepModel, iters int, tr *tracer, out metrics) {
	val := []float32{1e-3}
	out["sparse.inject_us"] = 1e6 * timeMedian(iters, func() {
		sp := tr.begin("sparse.Inject", -1, 0)
		_ = sm.src.InjectDeep(sm.u, 1, val, nil)
		tr.end(sp)
	})
	out["sparse.interpolate_us"] = 1e6 * timeMedian(iters, func() {
		sp := tr.begin("sparse.Interpolate", -1, 0)
		sm.rec.Interpolate(sm.u, 1, nil)
		tr.end(sp)
	})
}

// probeFieldAlloc times the allocation of the acoustic working set
// (three wavefield buffers and two parameter fields).
func probeFieldAlloc(n, so int, tr *tracer) (float64, error) {
	g, err := grid.New([]int{n, n}, nil)
	if err != nil {
		return 0, err
	}
	sp := tr.begin("field.alloc", -1, 0)
	defer tr.end(sp)
	t0 := time.Now()
	if _, err := field.NewTimeFunction("u", g, so, 2, nil); err != nil {
		return 0, err
	}
	for _, name := range []string{"m", "damp"} {
		if _, err := field.NewFunction(name, g, so, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// probeCheckpoint times a snapshot and a restore of one wavefield.
func probeCheckpoint(u *field.Function, iters int, tr *tracer, out metrics) {
	st := checkpoint.New(1, u)
	out["checkpoint.save_ms"] = 1e3 * timeMedian(iters, func() {
		sp := tr.begin("checkpoint.Save", -1, 0)
		st.Save(0)
		tr.end(sp)
	})
	out["checkpoint.restore_ms"] = 1e3 * timeMedian(iters, func() {
		sp := tr.begin("checkpoint.Restore", -1, 0)
		_ = st.Restore(0)
		tr.end(sp)
	})
}

// stageTimes is the wall time of each compiler stage replayed on one
// model, plus the IR sizes after each stage.
type stageTimes struct {
	expand, lower, schedule, build, bytecode, native, emit float64 // seconds
	clusters, haloReqs, nodes, codeBytes                   int
}

func (a *stageTimes) add(b stageTimes) {
	a.expand += b.expand
	a.lower += b.lower
	a.schedule += b.schedule
	a.build += b.build
	a.bytecode += b.bytecode
	a.native += b.native
	a.emit += b.emit
	a.clusters += b.clusters
	a.haloReqs += b.haloReqs
	a.nodes += b.nodes
	a.codeBytes += b.codeBytes
}

func (a stageTimes) total() float64 {
	return a.expand + a.lower + a.schedule + a.build + a.bytecode + a.native + a.emit
}

func (a stageTimes) into(out metrics, newOperatorS float64) {
	out["symbolic.expand_ms"] = a.expand * 1e3
	out["ir.lower_ms"] = a.lower * 1e3
	out["ir.schedule_ms"] = a.schedule * 1e3
	out["iet.build_ms"] = a.build * 1e3
	out["bytecode.compile_ms"] = a.bytecode * 1e3
	out["native.compile_ms"] = a.native * 1e3
	out["codegen.emit_ms"] = a.emit * 1e3
	out["ir.clusters"] = float64(a.clusters)
	out["ir.halo_reqs"] = float64(a.haloReqs)
	out["iet.nodes"] = float64(a.nodes)
	out["codegen.bytes"] = float64(a.codeBytes)
	if newOperatorS > 0 {
		out["core.construct_cover_frac"] = a.total() / newOperatorS
	}
}

// replayStages re-runs, one exported call at a time, the pipeline
// NewOperator ran to produce op: derivative expansion, cluster lowering,
// halo scheduling, IET build and mode (or time-tile) lowering, bytecode compile, native
// re-lowering and C emission. Expansion and lowering replay on the
// model's submitted equations (core's CIRE pass is unexported, so for TTI
// they see the un-materialised nested derivatives); every later stage
// replays on the operator's own schedule.
func replayStages(m *propagators.Model, op *core.Operator, mode halo.Mode, tr *tracer, rep int) (stageTimes, error) {
	var st stageTimes
	nd := m.Grid.NDims()
	stage := func(name string, dst *float64, fn func() error) error {
		sp := tr.begin(name, -1, rep)
		t0 := time.Now()
		err := fn()
		*dst = time.Since(t0).Seconds()
		tr.end(sp)
		return err
	}
	_ = stage("symbolic.ExpandDerivatives", &st.expand, func() error {
		for _, e := range m.Eqs {
			symbolic.ExpandDerivatives(e.LHS)
			symbolic.ExpandDerivatives(e.RHS)
		}
		return nil
	})
	if err := stage("ir.Lower", &st.lower, func() error {
		_, err := ir.Lower(m.Eqs, nd)
		return err
	}); err != nil {
		return st, err
	}
	// Lower expands again internally; charge it only its own share.
	st.lower = max(0, st.lower-st.expand)

	clusters := make([]*ir.Cluster, len(op.Schedule.Steps))
	for i, s := range op.Schedule.Steps {
		clusters[i] = s.Cluster
	}
	isTime := func(name string) bool {
		f, ok := m.Fields[name]
		return ok && len(f.Bufs) > 1
	}
	var sched *ir.Schedule
	_ = stage("ir.Schedule", &st.schedule, func() error {
		sched = ir.OptimizeSchedule(ir.BuildSchedule(clusters, nd, isTime), isTime)
		return nil
	})
	st.clusters = len(sched.Steps)
	st.haloReqs = len(sched.Preamble)
	for _, s := range sched.Steps {
		st.haloReqs += len(s.Halos)
	}

	var tree iet.Callable
	_ = stage("iet.Build", &st.build, func() error {
		tree = iet.Build(m.Name, op.Schedule)
		if plan := op.TilePlan(); plan != nil {
			tree = iet.LowerTimeTile(tree, mode, plan.K, plan.Halos)
		} else {
			tree = iet.LowerHalos(tree, mode)
		}
		return nil
	})
	st.nodes = iet.CountNodes(tree, func(iet.Node) bool { return true })

	var nests []iet.LoopNest
	iet.Walk(tree, func(n iet.Node) {
		switch v := n.(type) {
		case iet.LoopNest:
			nests = append(nests, v)
		}
	})
	// An OverlapSection carries its nest twice (Core and Remainder); the
	// operator compiles one kernel per schedule step.
	nests = dedupNests(nests, len(op.Schedule.Steps))
	var bks []*bytecode.Kernel
	if err := stage("bytecode.CompileNest", &st.bytecode, func() error {
		for _, n := range nests {
			bk, err := bytecode.CompileNest(n.Assigns, n.Exprs, n.Cluster.Radius, m.Fields)
			if err != nil {
				return err
			}
			bks = append(bks, bk)
		}
		return nil
	}); err != nil {
		return st, err
	}
	_ = stage("native.Wrap", &st.native, func() error {
		for _, bk := range bks {
			native.Wrap(bk)
		}
		return nil
	})
	_ = stage("codegen.EmitC", &st.emit, func() error {
		em := &codegen.Emitter{Halo: map[string][]int{}, TimeBufs: map[string]int{}}
		for n, f := range m.Fields {
			em.Halo[n] = f.Halo
			em.TimeBufs[n] = len(f.Bufs)
		}
		st.codeBytes = len(em.EmitC(tree))
		return nil
	})
	return st, nil
}

// dedupNests keeps one nest per cluster, in first-seen order.
func dedupNests(nests []iet.LoopNest, want int) []iet.LoopNest {
	seen := map[*ir.Cluster]bool{}
	out := make([]iet.LoopNest, 0, want)
	for _, n := range nests {
		if !seen[n.Cluster] {
			seen[n.Cluster] = true
			out = append(out, n)
		}
	}
	return out
}

// obsHarvest is what one traced rep left in the library's own recorder.
type obsHarvest struct {
	spans                    int
	packNs, unpackNs, waitNs float64 // summed over ranks
	shellPoints              int64
}

func (h *obsHarvest) add(o obsHarvest) {
	h.spans += o.spans
	h.packNs += o.packNs
	h.unpackNs += o.unpackNs
	h.waitNs += o.waitNs
	h.shellPoints += o.shellPoints
}

// traced runs one rep with the library's own recorder on and returns
// what it recorded.
func traced(rep func() error) (obsHarvest, error) {
	obs.Reset()
	obs.EnableTracing()
	err := rep()
	obs.DisableAll()
	if err != nil {
		return obsHarvest{}, err
	}
	return harvestObs()
}

// harvestObs reads the obs recorder after a traced rep: span counts and
// pack/unpack sums from the exported Chrome trace, wait time and shell
// points from the counter snapshot.
func harvestObs() (obsHarvest, error) {
	var h obsHarvest
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		return h, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return h, err
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		h.spans++
		switch e.Name {
		case "pack":
			h.packNs += e.Dur * 1e3
		case "unpack":
			h.unpackNs += e.Dur * 1e3
		}
	}
	snap := obs.Snapshot()
	h.waitNs = float64(snap.Total.RecvWaitNs)
	h.shellPoints = snap.Total.ShellPoints
	return h, nil
}
