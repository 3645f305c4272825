package core

import (
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

// exchange is one halo update of the program: the requirement a tree node
// names, bound to the exchanger that performs it.
type exchange struct {
	req ir.HaloReq
	ex  *halo.Exchanger
}

// sweep is one loop nest of the timestep body (sweep i runs kernel i of
// schedule step i) with the exchanges that must complete before its
// non-CORE points are computed.
type sweep struct {
	halos []exchange
	// overlap is set when the tree posts the exchanges asynchronously
	// around the nest's CORE section (an OverlapSection, or the first nest
	// of a TimeTile whose Update is async).
	overlap bool
}

// program is the flattened op.Tree.
type program struct {
	// preamble holds the once-per-Apply exchanges placed before the time
	// loop.
	preamble []exchange
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
// distinct (field, timeOff) requirement at the operator's current mode
// and exchange depth. Distinct streams per requirement are essential
// under the overlapped pattern: a tile head posts every deep exchange at
// once, and two in-flight exchanges of different time buffers of one field
// must not cross-match tags or share receive buffers. Streams are numbered
// in tree order, so tags agree across ranks and across rebuilds.
func (op *Operator) flatten() {
	op.exchanged = map[string]bool{}
	table := map[ir.HaloReq]exchange{}
	bind := func(reqs []ir.HaloReq) []exchange {
		var out []exchange
		for _, h := range reqs {
			e, ok := table[h]
			if !ok {
				f, okF := op.Fields[h.Field]
				if !okF {
					continue
				}
				e = exchange{req: h, ex: halo.NewDepth(op.mode, op.ctx.Cart, f, len(table), op.exchangeDepth(h.Field))}
				table[h] = e
				op.exchanged[h.Field] = true
			}
			out = append(out, e)
		}
		return out
	}
	pr := program{k: 1}
	nests := func(body []iet.Node, pending []exchange, overlap bool) {
		for _, n := range body {
			switch v := n.(type) {
			case iet.HaloUpdateCall:
				pending = append(pending, bind(v.Fields)...)
			case iet.OverlapSection:
				pr.sweeps = append(pr.sweeps, sweep{halos: bind(v.Update.Fields), overlap: true})
			case iet.LoopNest:
				pr.sweeps = append(pr.sweeps, sweep{halos: pending, overlap: overlap})
				pending, overlap = nil, false
			}
		}
	}
	for _, n := range op.Tree.Body {
		switch v := n.(type) {
		case iet.HaloUpdateCall:
			pr.preamble = append(pr.preamble, bind(v.Fields)...)
		case iet.TimeLoop:
			nests(v.Body, nil, false)
		case iet.TimeTile:
			pr.k = v.K
			nests(v.Body, bind(v.Update.Fields), v.Update.Async)
		}
	}
	op.prog = pr
}

// runPreamble performs the program's once-per-run exchanges of
// time-invariant fields: the schedule's hoisted parameters plus those the
// time-tiling shell recompute reads in the ghost region. Their traffic is
// classified as preamble (not steady-state) in the obs metrics.
func (op *Operator) runPreamble() {
	rank := op.obsRank()
	obs.SetPreamble(rank, true)
	sp := obs.Begin(rank, obs.PhaseExchange, -1)
	start := time.Now()
	for _, h := range op.prog.preamble {
		h.ex.Exchange(h.req.TimeOff)
	}
	op.perf.HaloSeconds += time.Since(start).Seconds()
	sp.End()
	obs.SetPreamble(rank, false)
}

// step executes one timestep of the program. Every sweep is one
// choreography — start its exchanges, compute while they are in flight
// (MPI_Test progress prods between tiles), finish them, compute the rest
// of the sweep's box — and the tree only picks what is computed in flight:
// CORE (owned shrunk by the cluster radius, so no read touches in-flight
// halo data) where it overlaps the exchanges, nothing otherwise, which
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
	rank := op.obsRank()
	owned := fullBox(localShape)
	for si, sw := range pr.sweeps {
		k := op.kernels[si]
		box := op.sweepBox(localShape, j, si)
		// rest is what the exchanges must complete for, shell what follows it.
		rest := box
		var shell []runtime.Box
		if pr.k > 1 {
			obs.Add(rank, obs.CtrShellPoints, int64(box.Size()-owned.Size()))
			if box.Size() > owned.Size() && obs.TracingEnabled() {
				// Peel the tile's shrinking ghost shell off so the trace
				// separates owned compute from the redundant recompute.
				// Per-point updates within one schedule step are
				// independent, so the split is bit-identical to one sweep.
				rest, shell = owned, remainderBoxes(box, owned)
			}
		}
		// Only a tile's first substep exchanges.
		halos := sw.halos
		if j > 0 {
			halos = nil
		}
		// What runs while the exchanges are in flight, and what after: the
		// tree says CORE and the rest peeled around it, or nothing and rest.
		var inflight []runtime.Box
		after := []runtime.Box{rest}
		if sw.overlap && len(halos) > 0 {
			core := coreBox(localShape, k.StencilRadius())
			inflight, after = []runtime.Box{core}, remainderBoxes(rest, core)
		}
		op.exchangeSection(t, halos, (*halo.Exchanger).Start)
		if inflight != nil {
			prod := op.execOpts
			prod.Progress = func() {
				for _, h := range halos {
					h.ex.Progress()
				}
			}
			op.computeSection(obs.PhaseCompute, t, si, bound[si], inflight, &prod)
		}
		op.exchangeSection(t, halos, (*halo.Exchanger).Finish)
		op.computeSection(obs.PhaseCompute, t, si, bound[si], after, &op.execOpts)
		if shell != nil {
			op.computeSection(obs.PhaseShell, t, si, bound[si], shell, &op.execOpts)
		}
	}
	op.tilePos = (j + 1) % op.tileLen
}

// exchangeSection runs one half of a sweep's exchanges inside one exchange
// span, on the halo clock.
func (op *Operator) exchangeSection(t int, halos []exchange, half func(*halo.Exchanger, int)) {
	if len(halos) == 0 {
		return
	}
	sp := obs.Begin(op.obsRank(), obs.PhaseExchange, t)
	hs := time.Now()
	for _, h := range halos {
		half(h.ex, t+h.req.TimeOff)
	}
	op.perf.HaloSeconds += time.Since(hs).Seconds()
	sp.End()
}

// computeSection runs kernel si over boxes inside one span of the given
// phase, on the compute clock.
func (op *Operator) computeSection(ph obs.Phase, t, si int, syms []float64, boxes []runtime.Box, opts *runtime.ExecOpts) {
	sp := obs.Begin(op.obsRank(), ph, t)
	cs := time.Now()
	for _, b := range boxes {
		op.kernels[si].Run(t, b, syms, opts)
		op.perf.PointsUpdated += int64(b.Size())
	}
	op.perf.ComputeSeconds += time.Since(cs).Seconds()
	sp.End()
}

// sweepBox returns the compute box of schedule step si at tile substep j:
// the owned box widened by the step's CIRE extension (scratch clusters,
// which forbid tiling) or, under a tile plan, by the shrinking ghost
// shell clipped where it would fall off the global domain.
func (op *Operator) sweepBox(localShape []int, j, si int) runtime.Box {
	b := fullBox(localShape)
	for d := range b.Lo {
		lo, hi := op.stepExt[si], op.stepExt[si]
		if p := op.plan; p != nil {
			ext := (op.tileLen-1-j)*p.Stride[d] + p.Tails[si][d]
			lo, hi = min(ext, op.shellLo[d]), min(ext, op.shellHi[d])
		}
		b.Lo[d] -= lo
		b.Hi[d] += hi
	}
	return b
}
