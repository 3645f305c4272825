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
	ex  halo.Exchanger
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

// step executes one timestep of the program: every sweep computes its box
// after (or, when the tree overlaps them, around) its exchanges. remaining
// is the number of steps left in this Apply including the current one — a
// tile never outlives its Apply, so short windows (the adjoint driver
// applies one step at a time) degenerate gracefully to the k=1 schedule
// instead of paying shell recompute they cannot amortize.
func (op *Operator) step(t int, bound [][]float64, localShape []int, remaining int) {
	pr := &op.prog
	if op.tilePos == 0 {
		op.tileLen = max(1, min(pr.k, remaining))
	}
	j := op.tilePos
	rank := op.obsRank()
	ownedPts := 1
	for _, n := range localShape {
		ownedPts *= n
	}
	for si, sw := range pr.sweeps {
		k := op.kernels[si]
		box := op.sweepBox(localShape, j, si)
		// shell: the sweep includes the shrinking ghost shell of a tile.
		shell := false
		if pr.k > 1 {
			obs.Add(rank, obs.CtrShellPoints, int64(box.Size()-ownedPts))
			shell = box.Size() > ownedPts
		}
		halos := sw.halos
		if j > 0 {
			halos = nil
		}
		if sw.overlap && len(halos) > 0 {
			op.overlapSweep(k, t, box, coreBox(localShape, k.StencilRadius()), bound[si], halos)
			continue
		}
		if len(halos) > 0 {
			sp := obs.Begin(rank, obs.PhaseExchange, t)
			hs := time.Now()
			for _, h := range halos {
				h.ex.Exchange(t + h.req.TimeOff)
			}
			op.perf.HaloSeconds += time.Since(hs).Seconds()
			sp.End()
		}
		cs := time.Now()
		sp := obs.Begin(rank, obs.PhaseCompute, t)
		opts := &op.execOpts
		if shell {
			// Shell slabs are thin and uneven across the static
			// block-cyclic partition: only sweeps that include them let
			// drained workers steal.
			steal := op.execOpts
			steal.Steal = true
			opts = &steal
		}
		if shell && obs.TracingEnabled() {
			// Split the sweep so the trace separates owned compute from the
			// redundant shell recompute. Per-point updates within one
			// schedule step are independent, so sweeping the owned box and
			// the shell slabs separately is bit-identical to one sweep.
			owned := fullBox(localShape)
			k.Run(t, owned, bound[si], &op.execOpts)
			sp.End()
			sp = obs.Begin(rank, obs.PhaseShell, t)
			for _, rb := range remainderBoxes(box, owned) {
				k.Run(t, rb, bound[si], opts)
			}
		} else {
			k.Run(t, box, bound[si], opts)
		}
		sp.End()
		op.perf.ComputeSeconds += time.Since(cs).Seconds()
		op.perf.PointsUpdated += int64(box.Size())
	}
	op.tilePos = (j + 1) % op.tileLen
}

// overlapSweep is the CORE/REMAINDER choreography of the full pattern:
// post the exchanges, compute the CORE box (owned shrunk by the cluster
// radius, so no read touches in-flight halo data) with MPI_Test progress
// prods between tiles, complete the exchanges, then sweep the remainder of
// the outer box — the boundary ring plus any CIRE extension or ghost shell.
func (op *Operator) overlapSweep(k ExecKernel, t int, outer, core runtime.Box, syms []float64, halos []exchange) {
	rank := op.obsRank()
	sp := obs.Begin(rank, obs.PhaseExchange, t)
	hs := time.Now()
	for _, h := range halos {
		h.ex.Start(t + h.req.TimeOff)
	}
	op.perf.HaloSeconds += time.Since(hs).Seconds()
	sp.End()

	sp = obs.Begin(rank, obs.PhaseCompute, t)
	cs := time.Now()
	opts := op.execOpts
	opts.Progress = func() {
		for _, h := range halos {
			h.ex.Progress()
		}
	}
	k.Run(t, core, syms, &opts)
	op.perf.ComputeSeconds += time.Since(cs).Seconds()
	op.perf.PointsUpdated += int64(core.Size())
	sp.End()

	sp = obs.Begin(rank, obs.PhaseExchange, t)
	ws := time.Now()
	for _, h := range halos {
		h.ex.Finish(t + h.req.TimeOff)
	}
	op.perf.HaloSeconds += time.Since(ws).Seconds()
	sp.End()

	sp = obs.Begin(rank, obs.PhaseCompute, t)
	rs := time.Now()
	for _, rb := range remainderBoxes(outer, core) {
		k.Run(t, rb, syms, &op.execOpts)
		op.perf.PointsUpdated += int64(rb.Size())
	}
	op.perf.ComputeSeconds += time.Since(rs).Seconds()
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
