package core

import (
	"fmt"

	"devigo/internal/iet"
	"devigo/internal/symbolic"
)

// FlopsPerPointOptimized counts the per-point flop cost of the *generated*
// code: after invariant hoisting and CSE, summing the per-point scalar
// assignments and update expressions of every loop nest. This is the
// number Devito's compile-time operational-intensity estimate corresponds
// to (paper Section IV-C).
func (op *Operator) FlopsPerPointOptimized() int {
	total := 0
	// The built tree holds every nest once (a lowered OverlapSection
	// carries its nest twice, as Core and Remainder).
	iet.Walk(op.built, func(n iet.Node) {
		nest, ok := n.(iet.LoopNest)
		if !ok {
			return
		}
		for _, a := range nest.Assigns {
			total += symbolic.FlopCount(a.Value)
		}
		for _, e := range nest.Exprs {
			total += symbolic.FlopCount(e.RHS) + 1
		}
	})
	return total
}

// HaloStreamCount returns the number of (field, timeOffset) pairs
// exchanged per timestep in the steady state of the time loop, after the
// drop/hoist/merge passes.
func (op *Operator) HaloStreamCount() int {
	n := 0
	for _, st := range op.Schedule.Steps {
		n += len(st.Halos)
	}
	return n
}

// StreamCount returns the distinct (field, timeOffset) data streams the
// operator touches per point per timestep — the modelled DRAM traffic is
// 4 bytes per stream per point.
func (op *Operator) StreamCount() int {
	streams := map[string]bool{}
	for _, st := range op.Schedule.Steps {
		for _, e := range st.Cluster.Eqs {
			lhs := e.LHS.(symbolic.Access)
			streams[fmt.Sprintf("%s@%d", lhs.Fun.Name, lhs.TimeOff)] = true
			for _, a := range symbolic.Accesses(e.RHS) {
				streams[fmt.Sprintf("%s@%d", a.Fun.Name, a.TimeOff)] = true
			}
		}
	}
	return len(streams)
}
