// Package iet implements the Iteration/Expression Tree — the control-flow
// level IR of the devigo compiler (paper Section II). The tree is built
// from an optimized ir.Schedule, carries HaloSpot nodes conveying exchange
// metadata (paper Listing 5), and is lowered per communication mode into
// specialized HaloUpdate/HaloWait call nodes (paper Listing 6) or, for the
// full mode, an overlapped CORE/REMAINDER section.
package iet

import (
	"devigo/internal/halo"
	"devigo/internal/ir"
	"devigo/internal/symbolic"
)

// Node is an IET tree node.
type Node interface{ isNode() }

// Callable is the kernel entry point.
type Callable struct {
	Name string
	Body []Node
}

// ScalarAssign declares a loop-invariant scalar temporary (r0 = 1/dt ...).
type ScalarAssign struct {
	Name  string
	Value symbolic.Expr
}

// TimeLoop is the sequential stepping loop.
type TimeLoop struct {
	Body []Node
}

// IterationProps tags a loop with the analysis properties the compiler
// derived (paper Listing 5: affine, parallel, vector-dim, sequential).
type IterationProps []string

// LoopNest is a fused, affine, parallel loop nest executing one cluster.
type LoopNest struct {
	Dims    []string
	Props   IterationProps
	Assigns []symbolic.Assignment // per-point CSE temporaries
	Exprs   []symbolic.Eq
	// Keyed is the body as CSE left it, keyed: Assigns' values and Exprs'
	// right-hand sides, from which the kernel compilers read subtree keys
	// instead of rendering again.
	Keyed   symbolic.KeyedNest
	Cluster *ir.Cluster
}

// HaloSpot conveys a required halo update: the analysis-stage node.
type HaloSpot struct {
	Fields []ir.HaloReq
}

// HaloUpdateCall is the lowered exchange-start node.
type HaloUpdateCall struct {
	Fields []ir.HaloReq
	Mode   halo.Mode
	// Async marks overlap-mode updates: sent here, received at the
	// matching HaloWaitCall.
	Async bool
}

// HaloWaitCall completes an asynchronous exchange.
type HaloWaitCall struct {
	Fields []ir.HaloReq
}

// OverlapSection is the full-mode structure: start exchange, compute CORE,
// wait, compute REMAINDER.
type OverlapSection struct {
	Update    HaloUpdateCall
	Core      LoopNest
	Wait      HaloWaitCall
	Remainder LoopNest
}

// TimeTile is the communication-avoiding time-tiled stepping structure: a
// deep-halo exchange of every pre-tile buffer, then K timestep bodies
// whose ghost shells shrink by the schedule's stride per substep. It
// replaces TimeLoop when the exchange interval exceeds 1: per-step
// HaloSpots disappear because every in-tile read is supplied either by the
// tile-start exchange or by the previous substep's shell.
type TimeTile struct {
	// K is the exchange interval (timesteps per deep exchange).
	K int
	// Update is the tile-start exchange of every pre-tile (field, time
	// offset) buffer at the deep ghost width. Async under the full pattern
	// (overlapped with the first substep's CORE compute).
	Update HaloUpdateCall
	// Body holds the K-fold-executed timestep body (one entry per cluster
	// loop nest, HaloSpots removed).
	Body []Node
}

func (Callable) isNode()       {}
func (ScalarAssign) isNode()   {}
func (TimeLoop) isNode()       {}
func (LoopNest) isNode()       {}
func (HaloSpot) isNode()       {}
func (HaloUpdateCall) isNode() {}
func (HaloWaitCall) isNode()   {}
func (OverlapSection) isNode() {}
func (TimeTile) isNode()       {}

var dimNames = []string{"x", "y", "z"}

// Build constructs the IET from an optimized schedule: invariant hoisting
// and CSE run here (the flop-reduction transformations of the Cluster
// layer feeding the generated code), and HaloSpots are placed where the
// schedule requires exchanges. Each right-hand side is keyed once; the
// passes after it, and the kernel compilers after them, reuse those keys.
func Build(name string, sched *ir.Schedule) Callable {
	var body []Node
	temp := 0
	// Hoisted scalar temporaries shared across all clusters.
	var allExprs []symbolic.Keyed
	for _, st := range sched.Steps {
		for _, e := range st.Cluster.Eqs {
			// Flop reduction: factor common coefficients out of the
			// stencil sums before extracting invariants and CSE temps.
			allExprs = append(allExprs, symbolic.FactorCommon(symbolic.KeyOf(e.RHS)))
		}
	}
	invAssigns, rewritten := symbolic.HoistInvariants(allExprs, &temp)
	for _, a := range invAssigns {
		body = append(body, ScalarAssign{Name: a.Name, Value: a.Value})
	}
	if len(sched.Preamble) > 0 {
		body = append(body, HaloSpot{Fields: sched.Preamble})
	}
	var loop TimeLoop
	ri := 0
	for _, st := range sched.Steps {
		if len(st.Halos) > 0 {
			loop.Body = append(loop.Body, HaloSpot{Fields: st.Halos})
		}
		nd := len(st.Cluster.Radius)
		nest := LoopNest{
			Dims:    dimNames[:nd],
			Props:   propsFor(nd),
			Cluster: st.Cluster,
		}
		// Per-cluster CSE over the invariant-hoisted expressions.
		n := len(st.Cluster.Eqs)
		nest.Assigns, nest.Keyed = symbolic.CSE(rewritten[ri:ri+n], &temp)
		ri += n
		nest.Exprs = make([]symbolic.Eq, n)
		for i, e := range st.Cluster.Eqs {
			nest.Exprs[i] = symbolic.Eq{LHS: e.LHS, RHS: nest.Keyed.RHS[i].Expr}
		}
		loop.Body = append(loop.Body, nest)
	}
	body = append(body, loop)
	return Callable{Name: name, Body: body}
}

func propsFor(nd int) IterationProps {
	props := make(IterationProps, nd)
	for i := range props {
		switch {
		case i == nd-1:
			props[i] = "affine,parallel,vector-dim"
		default:
			props[i] = "affine,parallel"
		}
	}
	return props
}

// LowerHalos rewrites HaloSpot nodes into mode-specific call nodes —
// paper Listing 6. For basic/diagonal the spot becomes a synchronous
// update+wait pair placed where the spot was; for full, the spot fuses
// with the following LoopNest into an OverlapSection.
func LowerHalos(c Callable, mode halo.Mode) Callable {
	c.Body = lowerList(c.Body, mode)
	return c
}

func lowerList(nodes []Node, mode halo.Mode) []Node {
	var out []Node
	for i := 0; i < len(nodes); i++ {
		switch n := nodes[i].(type) {
		case TimeLoop:
			out = append(out, TimeLoop{Body: lowerList(n.Body, mode)})
		case HaloSpot:
			if mode == halo.ModeNone {
				// Serial runs need no exchanges at all.
				continue
			}
			if mode == halo.ModeFull {
				// Fuse with the next LoopNest when possible.
				if i+1 < len(nodes) {
					if nest, ok := nodes[i+1].(LoopNest); ok {
						out = append(out, OverlapSection{
							Update:    HaloUpdateCall{Fields: n.Fields, Mode: mode, Async: true},
							Core:      nest,
							Wait:      HaloWaitCall{Fields: n.Fields},
							Remainder: nest,
						})
						i++
						continue
					}
				}
				// No nest to overlap with: degrade to synchronous.
				out = append(out,
					HaloUpdateCall{Fields: n.Fields, Mode: mode},
					HaloWaitCall{Fields: n.Fields})
				continue
			}
			out = append(out,
				HaloUpdateCall{Fields: n.Fields, Mode: mode},
				HaloWaitCall{Fields: n.Fields})
		default:
			out = append(out, nodes[i])
		}
	}
	return out
}

// LowerTimeTile rewrites the time loop of a built (un-lowered) callable
// into the exchange-interval-k form: the TimeLoop becomes a TimeTile whose
// Update exchanges the tileReqs buffers deep once per k steps, and the
// per-step HaloSpots inside the loop are dropped (their reads are supplied
// by the tile-start exchange and the shrinking shells). HaloSpots outside
// the loop (the hoisted preamble) are lowered synchronously as usual.
func LowerTimeTile(c Callable, mode halo.Mode, k int, tileReqs []ir.HaloReq) Callable {
	var out []Node
	for _, n := range c.Body {
		tl, ok := n.(TimeLoop)
		if !ok {
			out = append(out, lowerList([]Node{n}, mode)...)
			continue
		}
		var body []Node
		for _, b := range tl.Body {
			if _, isSpot := b.(HaloSpot); isSpot {
				continue
			}
			body = append(body, b)
		}
		out = append(out, TimeTile{
			K:      k,
			Update: HaloUpdateCall{Fields: tileReqs, Mode: mode, Async: mode == halo.ModeFull},
			Body:   body,
		})
	}
	c.Body = out
	return c
}

// Walk visits every node depth-first.
func Walk(n Node, fn func(Node)) {
	fn(n)
	switch v := n.(type) {
	case Callable:
		for _, c := range v.Body {
			Walk(c, fn)
		}
	case TimeLoop:
		for _, c := range v.Body {
			Walk(c, fn)
		}
	case TimeTile:
		fn(v.Update)
		for _, c := range v.Body {
			Walk(c, fn)
		}
	case OverlapSection:
		fn(v.Update)
		Walk(v.Core, fn)
		fn(v.Wait)
		Walk(v.Remainder, fn)
	}
}

// CountNodes returns how many nodes satisfy the predicate.
func CountNodes(n Node, pred func(Node) bool) int {
	count := 0
	Walk(n, func(m Node) {
		if pred(m) {
			count++
		}
	})
	return count
}
