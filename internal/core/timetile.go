package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"devigo/internal/ir"
	"devigo/internal/runtime"
)

// This file wires communication-avoiding time tiling (exchange interval
// k) through the operator: instead of one latency-bound halo exchange per
// timestep per field, a k-times-deeper ghost region is exchanged once per
// k steps and the shrinking ghost shell is recomputed redundantly in
// between (ir.PlanTimeTile derives the shell geometry and proves
// legality). The owned box of every rank holds bit-identical values to a
// k=1 run after every substep, so tiling composes with every halo mode,
// all three engines, the adjoint/reverse schedules and the differential/
// dot-product certification harnesses unchanged.

// TimeTileEnvVar overrides the exchange interval when Options.TimeTile is
// unset: DEVIGO_TIME_TILE=k runs existing programs with deep-halo time
// tiling with zero code changes.
const TimeTileEnvVar = "DEVIGO_TIME_TILE"

// MaxTileCandidate caps the exchange interval the autotuner explores.
const MaxTileCandidate = 8

// resolveTimeTile picks the requested exchange interval: explicit
// Options.TimeTile wins, then the DEVIGO_TIME_TILE environment variable,
// then 1 (no tiling).
func resolveTimeTile(requested int) (int, error) {
	if requested > 0 {
		return requested, nil
	}
	if requested < 0 {
		return 0, fmt.Errorf("core: TimeTile must be >= 1, got %d", requested)
	}
	env := strings.TrimSpace(os.Getenv(TimeTileEnvVar))
	if env == "" {
		return 1, nil
	}
	k, err := strconv.Atoi(env)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("core: bad %s=%q (want an integer >= 1)", TimeTileEnvVar, env)
	}
	return k, nil
}

// isTimeField reports whether a field of the operator varies over time
// (has more than one buffer).
func (op *Operator) isTimeField(name string) bool {
	f, ok := op.Fields[name]
	return ok && len(f.Bufs) > 1
}

// tileFits reports whether a plan's exchange depths can be filled by a
// one-hop nearest-neighbour exchange: along every decomposed dimension the
// depth must not exceed the smallest owned chunk.
func tileFits(p *ir.TilePlan, minChunk, topology []int) bool {
	for _, depth := range p.Depth {
		for d := range minChunk {
			if topology[d] > 1 && depth[d] > minChunk[d] {
				return false
			}
		}
	}
	return true
}

// allocFits reports whether a plan's required ghost allocation fits the
// operator's fields as currently allocated.
func (op *Operator) allocFits(p *ir.TilePlan) bool {
	for name, alloc := range p.Alloc {
		f, ok := op.Fields[name]
		if !ok {
			continue
		}
		for d := range alloc {
			if alloc[d] > f.Halo[d] {
				return false
			}
		}
	}
	return true
}

// tilePlan plans the largest legal exchange interval <= k for a
// distributed schedule: its exchange depths must fit the decomposition's
// chunks and, when allocated is set, the ghost storage the fields already
// have. nil when no interval >= 2 qualifies (serial context, structural
// refusal — CIRE scratch, multi-writer fields — or nothing fits).
func (op *Operator) tilePlan(k int, allocated bool) *ir.TilePlan {
	if op.ctx == nil || k < 2 {
		return nil
	}
	minChunk := op.ctx.Decomp.MinChunk()
	for kk := k; kk >= 2; kk-- {
		p, _ := ir.PlanTimeTile(op.Schedule, kk, op.isTimeField, op.hasScratch)
		if p == nil {
			return nil
		}
		if tileFits(p, minChunk, op.ctx.Decomp.Topology) && (!allocated || op.allocFits(p)) {
			return p
		}
	}
	return nil
}

// TimeTile reports the operator's current exchange interval (1 = exchange
// every step, the classic schedule).
func (op *Operator) TimeTile() int {
	if op.plan == nil {
		return 1
	}
	return op.plan.K
}

// TilePlan exposes the active time-tiling plan (nil when the operator
// runs the classic one-exchange-per-step schedule).
func (op *Operator) TilePlan() *ir.TilePlan { return op.plan }

// InjectDepth returns the per-dimension ghost depth into which point
// sources must mirror their injections for results to stay bit-exact
// under time tiling (a rank redundantly recomputing its ghost shell must
// observe the same injected values its neighbour applied to the owned
// copy). nil when no tiling is active — plain owned-only injection then
// matches the k=1 schedule exactly.
func (op *Operator) InjectDepth() []int {
	if op.plan == nil {
		return nil
	}
	depth := make([]int, op.Grid.NDims())
	for _, f := range op.Fields {
		for d := range depth {
			if d < len(f.Halo) && f.Halo[d] > depth[d] {
				depth[d] = f.Halo[d]
			}
		}
	}
	return depth
}

// exchangeDepth returns the ghost width the operator exchanges for a
// field: the plan's computed depth under time tiling, the width the field
// was allocated with otherwise (the classic behaviour), however deep a
// time-tiled sibling has grown it since.
func (op *Operator) exchangeDepth(name string) []int {
	if op.plan != nil {
		return op.plan.Depth[name]
	}
	return op.Fields[name].BaseHalo
}

// remainderBoxes peels outer minus inner into disjoint slabs (inner must
// be contained in outer; an empty inner yields outer itself), written over
// rem's storage: slabs refill the boxes rem already holds, Lo and Hi
// included, so a caller that keeps the result and peels again allocates
// nothing.
func remainderBoxes(rem []runtime.Box, outer, inner runtime.Box) []runtime.Box {
	rem = rem[:0]
	for d := range outer.Lo {
		for side := 0; side < 2; side++ {
			i := len(rem)
			if i < cap(rem) {
				rem = rem[:i+1]
			} else {
				rem = append(rem, runtime.Box{})
			}
			b := &rem[i]
			b.Lo = append(b.Lo[:0], outer.Lo...)
			b.Hi = append(b.Hi[:0], outer.Hi...)
			for e := 0; e < d; e++ {
				b.Lo[e], b.Hi[e] = inner.Lo[e], inner.Hi[e]
			}
			if side == 0 {
				b.Hi[d] = inner.Lo[d]
			} else {
				b.Lo[d] = inner.Hi[d]
			}
			if b.Empty() {
				rem = rem[:i]
			}
		}
	}
	return rem
}

// CommStats is the steady-state per-timestep communication volume of an
// operator's current configuration, with deep-halo exchanges amortized
// over the exchange interval. The numbers are the exchangers' own
// (halo.Exchanger.Traffic): what their message tables send.
type CommStats struct {
	// TimeTile is the exchange interval the stats are amortized over.
	TimeTile int `json:"time_tile"`
	// MsgsPerStep is the average point-to-point message count per step.
	MsgsPerStep float64 `json:"msgs_per_step"`
	// BytesPerStep is the average exchanged byte volume per step.
	BytesPerStep float64 `json:"bytes_per_step"`
}

// CommStats reports this rank's per-timestep communication (zero when
// serial): what its exchangers post given the neighbours it has, so a
// rank on a non-periodic boundary reports less than an interior one.
// Preamble exchanges happen once per run and are excluded from the steady
// state.
func (op *Operator) CommStats() CommStats {
	out := CommStats{TimeTile: op.TimeTile()}
	k := float64(op.prog.k)
	for _, sw := range op.prog.sweeps {
		if sw.ex != nil {
			m, b := sw.ex.Traffic()
			out.MsgsPerStep += float64(m) / k
			out.BytesPerStep += b / k
		}
	}
	return out
}
