package core

import (
	"time"

	"devigo/internal/field"
	"devigo/internal/native"
	"devigo/internal/obs"
	"devigo/internal/runtime"
)

// maxHoistBytes bounds the hoisted rows one operator keeps: half the
// 2 MiB L2 of the host it was set on, so the rows every step reads back
// stay cache-resident. An operator whose rows would not fit (a 2048²
// serial grid needs 32 MiB) keeps its invariant chains inline.
var maxHoistBytes = 1 << 20

// hoisted is one kernel with time-invariant segments: schedule step si's.
type hoisted struct {
	si int
	k  *native.Kernel
}

// planHoist finds, once per operator, the kernels whose chain segments
// hold still through an Apply: segments that read only single-buffer
// fields no kernel of the operator writes (see native.Kernel.Hoist). Only
// the native engine hoists; its oracles run every chain every step.
func (op *Operator) planHoist() {
	written := map[*field.Function]bool{}
	for _, k := range op.kernels {
		nk, ok := k.(*native.Kernel)
		if !ok {
			return
		}
		bd := nk.Bytecode().Binding()
		for _, o := range bd.Outs {
			written[bd.Fields[o.Field]] = true
		}
	}
	for si, k := range op.kernels {
		nk := k.(*native.Kernel)
		if nk.Hoist(func(f *field.Function) bool { return written[f] }) > 0 {
			op.hoisted = append(op.hoisted, hoisted{si, nk})
		}
	}
	if len(op.hoisted) > 0 {
		nd := op.Grid.NDims()
		op.reach = runtime.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	}
}

// primeInvariants runs the hoisting kernels' invariant segments once,
// when the operator's hoisted rows fit maxHoistBytes, over the widest box
// each can sweep (see reachBox), so the steps that follow read the rows
// back instead of recomputing them. It follows every preamble of an Apply
// of two steps or more, whose exchanges refresh the ghosts a shell reads,
// inside its own span on the compute clock.
func (op *Operator) primeInvariants(localShape []int) {
	if len(op.hoisted) == 0 {
		return
	}
	total := 0
	for _, h := range op.hoisted {
		total += h.k.HoistBytes(op.reachBox(h.si, localShape))
	}
	if total > maxHoistBytes {
		return
	}
	sp := obs.Begin(op.ctx.rank(), obs.PhaseHoist, -1)
	cs := time.Now()
	for _, h := range op.hoisted {
		h.k.Prime(op.reachBox(h.si, localShape), op.bound[h.si], &op.execOpts)
	}
	op.primed = true
	op.perf.ComputeSeconds += time.Since(cs).Seconds()
	sp.End()
}

// reachBox fills op.reach with the widest box schedule step si can sweep:
// the owned box widened by its CIRE extension and, when the operator can
// time-tile, by the ghost shell the decomposition leaves room for (the
// kernel clips it to its storage).
func (op *Operator) reachBox(si int, localShape []int) runtime.Box {
	tiles := op.tileProvisioned || op.plan != nil
	for d := range op.reach.Lo {
		lo, hi := op.stepExt[si], op.stepExt[si]
		if tiles {
			lo, hi = max(lo, op.shellLo[d]), max(hi, op.shellHi[d])
		}
		op.reach.Lo[d], op.reach.Hi[d] = -lo, localShape[d]+hi
	}
	return op.reach
}

// unprimeInvariants ends an Apply's priming: a kernel run outside an
// Apply runs every segment.
func (op *Operator) unprimeInvariants() {
	for _, h := range op.hoisted {
		h.k.Unprime()
	}
	op.primed = false
}
