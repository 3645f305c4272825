package core

import (
	"slices"
	"time"

	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/obs"
	"devigo/internal/runtime"
)

// This file is the executor of the lowered IET. The tree that
// iet.LowerHalos / iet.LowerTimeTile produce — the one codegen prints — is
// flattened once per (re)lowering into a program, and Apply runs that
// program: every exchange the executor performs is a HaloUpdateCall,
// OverlapSection or TimeTile.Update of op.Tree, and a nest overlaps its
// exchange exactly when the tree says so.

// sweep is one loop nest of the timestep body (sweep i runs kernel i of
// schedule step i) with the exchange that must complete before its
// non-CORE points are computed: the requirements its tree nodes name and
// the one exchanger that fills them all (nil when it exchanges nothing).
type sweep struct {
	reqs []ir.HaloReq
	ex   *halo.Exchanger
	// overlap is set when the tree posts the exchange asynchronously
	// around the nest's CORE section (an OverlapSection, or the first nest
	// of a TimeTile whose Update is async).
	overlap bool
	// The rest is step's scratch, built on first use and reused by every
	// later step, so a steady step allocates none of it: core holds the
	// CORE box an overlapped sweep computes while its exchange is in
	// flight, and after and shell are refilled in place by remainderBoxes.
	core         []runtime.Box
	after, shell []runtime.Box
}

// program is the flattened op.Tree.
type program struct {
	// preamble is the once-per-Apply exchange placed before the time loop:
	// a sweep that computes nothing.
	preamble sweep
	// k is the tile length: 1 for a TimeLoop, TimeTile.K otherwise. Only a
	// tile's first substep performs its sweeps' exchanges.
	k      int
	sweeps []sweep
}

// withHoisted returns the built callable with the time-tiling plan's
// hoisted parameter exchanges joined to its preamble HaloSpot (placed
// before the time loop when the schedule has none), so the lowered tree
// names them like every other exchange. The input is not mutated.
func withHoisted(c iet.Callable, hoisted []ir.HaloReq) iet.Callable {
	if len(hoisted) == 0 {
		return c
	}
	body := make([]iet.Node, 0, len(c.Body)+1)
	merged := false
	for _, n := range c.Body {
		switch v := n.(type) {
		case iet.HaloSpot:
			n = iet.HaloSpot{Fields: append(append([]ir.HaloReq(nil), v.Fields...), hoisted...)}
			merged = true
		case iet.TimeLoop:
			if !merged {
				body = append(body, iet.HaloSpot{Fields: hoisted})
			}
		}
		body = append(body, n)
	}
	c.Body = body
	return c
}

// lower re-derives everything downstream of (mode, plan) from the built
// IET: the lowered tree, the program with its exchangers, and the
// generated source. Compiled kernels are untouched — the per-point
// programs are identical across halo modes and exchange intervals.
func (op *Operator) lower() {
	if op.plan != nil {
		op.Tree = iet.LowerTimeTile(withHoisted(op.built, op.plan.Hoisted), op.mode, op.plan.K, op.plan.Halos)
	} else {
		op.Tree = iet.LowerHalos(op.built, op.mode)
	}
	op.flatten()
	op.emitCode()
}

// flatten reads the program off op.Tree, instantiating one exchanger per
// exchange point — the preamble, and each sweep that exchanges — at the
// operator's current mode and exchange depths. The exchanger fills every
// (field, time offset) requirement the point names, once however often it
// is named, with one message per neighbour per phase. Each point has its
// own stream: a tile head posts its deep exchange while another point's
// may still be in flight, and the two must not cross-match tags or share
// receive buffers. Streams are numbered in tree order, so tags agree
// across ranks and across rebuilds.
func (op *Operator) flatten() {
	streams := 0
	bind := func(reqs []ir.HaloReq, overlap bool) sweep {
		sw := sweep{overlap: overlap}
		var parts []halo.Part
		for _, h := range reqs {
			f, ok := op.Fields[h.Field]
			if !ok || slices.Contains(sw.reqs, h) {
				continue
			}
			sw.reqs = append(sw.reqs, h)
			parts = append(parts, halo.Part{F: f, TimeOff: h.TimeOff, Depth: op.exchangeDepth(h.Field)})
		}
		if len(parts) > 0 {
			sw.ex = halo.NewParts(op.mode, op.ctx.Cart, streams, parts)
			streams++
		}
		return sw
	}
	pr := program{k: 1}
	nests := func(body []iet.Node, pending []ir.HaloReq, overlap bool) {
		for _, n := range body {
			switch v := n.(type) {
			case iet.HaloUpdateCall:
				pending = append(pending, v.Fields...)
			case iet.OverlapSection:
				pr.sweeps = append(pr.sweeps, bind(v.Update.Fields, true))
			case iet.LoopNest:
				pr.sweeps = append(pr.sweeps, bind(pending, overlap))
				pending, overlap = nil, false
			}
		}
	}
	for _, n := range op.Tree.Body {
		switch v := n.(type) {
		case iet.HaloUpdateCall: // the one preamble update
			pr.preamble = bind(v.Fields, false)
		case iet.TimeLoop:
			nests(v.Body, nil, false)
		case iet.TimeTile:
			pr.k = v.K
			nests(v.Body, slices.Clip(v.Update.Fields), v.Update.Async)
		}
	}
	op.prog = pr
}

// runPreamble performs the program's once-per-run exchange of
// time-invariant fields: the schedule's hoisted parameters plus those the
// time-tiling shell recompute reads in the ghost region. Its traffic is
// classified as preamble (not steady-state) in the obs metrics.
func (op *Operator) runPreamble() {
	rank := op.ctx.rank()
	obs.SetPreamble(rank, true)
	sp := obs.Begin(rank, obs.PhaseExchange, -1)
	start := time.Now()
	if ex := op.prog.preamble.ex; ex != nil {
		ex.Exchange(0)
	}
	op.perf.HaloSeconds += time.Since(start).Seconds()
	sp.End()
	obs.SetPreamble(rank, false)
}

// step executes one timestep of the program. Every sweep is one
// choreography — start its exchange, compute while it is in flight,
// finish it (the receives happen there), compute the rest
// of the sweep's box — and the tree only picks what is computed in flight:
// CORE (owned shrunk by the cluster radius, so no read touches in-flight
// halo data) where it overlaps the exchange, nothing otherwise, which
// makes the exchange synchronous and the rest the whole box. remaining is
// the number of steps left in this Apply including the current one — a
// tile never outlives its Apply, so short windows (the gradient's
// recompute of one checkpoint segment) degenerate gracefully towards the
// k=1 schedule instead of paying shell recompute they cannot amortize.
func (op *Operator) step(t int, bound [][]float64, localShape []int, remaining int) {
	pr := &op.prog
	if op.tilePos == 0 {
		op.tileLen = max(1, min(pr.k, remaining))
	}
	j := op.tilePos
	rank := op.ctx.rank()
	if len(op.boxes) != len(pr.sweeps)+1 {
		op.boxes = make([]runtime.Box, len(pr.sweeps)+1)
		for i := range op.boxes {
			op.boxes[i] = fullBox(localShape)
		}
	}
	owned := op.boxes[0]
	for si := range pr.sweeps {
		sw := &pr.sweeps[si]
		box := op.sweepBox(op.boxes[1+si], localShape, j, si)
		// rest is what the exchange must complete for, shell what follows it.
		rest := box
		var shell []runtime.Box
		if pr.k > 1 {
			obs.Add(rank, obs.CtrShellPoints, int64(box.Size()-owned.Size()))
			if box.Size() > owned.Size() && obs.TracingEnabled() {
				// Peel the tile's shrinking ghost shell off so the trace
				// separates owned compute from the redundant recompute.
				// Per-point updates within one schedule step are
				// independent, so the split is bit-identical to one sweep.
				sw.shell = remainderBoxes(sw.shell, box, owned)
				rest, shell = owned, sw.shell
			}
		}
		// Only a tile's first substep exchanges.
		ex := sw.ex
		if j > 0 {
			ex = nil
		}
		// What runs while the exchange is in flight, and what after: the
		// tree says CORE and the rest peeled around it, or nothing and rest.
		var inflight []runtime.Box
		after := []runtime.Box{rest}
		if sw.overlap && ex != nil {
			if sw.core == nil {
				sw.core = []runtime.Box{coreBox(localShape, op.kernels[si].StencilRadius())}
			}
			sw.after = remainderBoxes(sw.after, rest, sw.core[0])
			inflight, after = sw.core, sw.after
		}
		op.exchangeSection(t, ex, (*halo.Exchanger).Start)
		if inflight != nil {
			op.computeSection(obs.PhaseCompute, t, si, bound[si], inflight, &op.execOpts)
		}
		op.exchangeSection(t, ex, (*halo.Exchanger).Finish)
		op.computeSection(obs.PhaseCompute, t, si, bound[si], after, &op.execOpts)
		if shell != nil {
			op.computeSection(obs.PhaseShell, t, si, bound[si], shell, &op.execOpts)
		}
	}
	op.tilePos = (j + 1) % op.tileLen
}

// exchangeSection runs one half of a sweep's exchange (none when ex is
// nil) inside one exchange span, on the halo clock.
func (op *Operator) exchangeSection(t int, ex *halo.Exchanger, half func(*halo.Exchanger, int)) {
	if ex == nil {
		return
	}
	sp := obs.Begin(op.ctx.rank(), obs.PhaseExchange, t)
	hs := time.Now()
	half(ex, t)
	op.perf.HaloSeconds += time.Since(hs).Seconds()
	sp.End()
}

// computeSection runs kernel si over boxes inside one span of the given
// phase, on the compute clock.
func (op *Operator) computeSection(ph obs.Phase, t, si int, syms []float64, boxes []runtime.Box, opts *runtime.ExecOpts) {
	sp := obs.Begin(op.ctx.rank(), ph, t)
	cs := time.Now()
	for _, b := range boxes {
		op.kernels[si].Run(t, b, syms, opts)
		op.perf.PointsUpdated += int64(b.Size())
	}
	op.perf.ComputeSeconds += time.Since(cs).Seconds()
	sp.End()
}

// sweepBox sets b, which has one entry per dimension, to the compute box
// of schedule step si at tile substep j and returns it: the owned box
// widened by the step's CIRE extension (scratch clusters, which forbid
// tiling) or, under a tile plan, by the shrinking ghost shell clipped
// where it would fall off the global domain.
func (op *Operator) sweepBox(b runtime.Box, localShape []int, j, si int) runtime.Box {
	for d := range b.Lo {
		lo, hi := op.stepExt[si], op.stepExt[si]
		if p := op.plan; p != nil {
			ext := (op.tileLen-1-j)*p.Stride[d] + p.Tails[si][d]
			lo, hi = min(ext, op.shellLo[d]), min(ext, op.shellHi[d])
		}
		b.Lo[d], b.Hi[d] = -lo, localShape[d]+hi
	}
	return b
}
