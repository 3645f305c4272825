package native

import (
	"fmt"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// xlink is one fused per-point operation, executable form: operand
// pointers are patched per worker (register rows) and per row (field
// accesses), the scalar operand is resolved from the bound pool once per
// worker. kind/exp are copied from the kernel template.
type xlink struct {
	kind       bytecode.LinkKind
	exp        int
	sv         float64
	pa, pb, pc unsafe.Pointer
}

// Operand patch descriptors, precomputed at Wrap time.
type patchF struct {
	li   int32 // link index in the flat array
	pos  int8  // which pointer: 0=pa 1=pb 2=pc
	slot int32
}
type patchR struct {
	li  int32
	pos int8
	reg int32
}
type patchS struct {
	li   int32
	pool int32
}
type patchE struct {
	li int32
	eq int32
}

// tmpl is the kernel's immutable executable template.
type tmpl struct {
	links []xlink // kinds and exponents filled; pointers nil
	fs    []patchF
	rs    []patchR
	ss    []patchS
	es    []patchE
}

// buildTemplate flattens the chain segments' links and derives the patch
// lists from each link kind's operand roles.
func (k *Kernel) buildTemplate(segs []bytecode.Segment) {
	t := &tmpl{}
	li := func() int32 { return int32(len(t.links)) }
	// Operand-role helpers: field access, register row, pool scalar.
	f := func(pos int8, slot int32) { t.fs = append(t.fs, patchF{li(), pos, slot}) }
	r := func(pos int8, reg int32) { t.rs = append(t.rs, patchR{li(), pos, reg}) }
	s := func(pool int32) { t.ss = append(t.ss, patchS{li(), pool}) }
	for _, seg := range segs {
		if seg.Shape == bytecode.ShapeVM {
			continue
		}
		for _, l := range seg.Links {
			x := xlink{kind: l.Kind}
			switch l.Kind {
			case bytecode.LkToRow:
				r(0, l.A)
			case bytecode.LkStore:
				t.es = append(t.es, patchE{li(), l.A})
			case bytecode.LkMovS, bytecode.LkAccAddS, bytecode.LkAccMulS,
				bytecode.LkTMulS, bytecode.LkMergeMaddTS:
				s(l.A)
			case bytecode.LkMulFS, bytecode.LkAddFS, bytecode.LkTMulFS,
				bytecode.LkAccMaddFS, bytecode.LkTMaddFS:
				f(0, l.A)
				s(l.B)
			case bytecode.LkMulRS, bytecode.LkAddRS, bytecode.LkTMulRS,
				bytecode.LkAccMaddRS, bytecode.LkTMaddRS:
				r(0, l.A)
				s(l.B)
			case bytecode.LkMulFF, bytecode.LkAddFF, bytecode.LkTMulFF,
				bytecode.LkAccMaddFF:
				f(0, l.A)
				f(1, l.B)
			case bytecode.LkMulFR, bytecode.LkAddFR, bytecode.LkTMulFR,
				bytecode.LkAccMaddFR:
				f(0, l.A)
				r(1, l.B)
			case bytecode.LkMulRR, bytecode.LkAddRR, bytecode.LkTMulRR,
				bytecode.LkAccMaddRR:
				r(0, l.A)
				r(1, l.B)
			case bytecode.LkPowF:
				f(0, l.A)
				x.exp = int(l.B)
			case bytecode.LkPowR:
				r(0, l.A)
				x.exp = int(l.B)
			case bytecode.LkAccPow:
				x.exp = int(l.A)
			case bytecode.LkMaddFSF:
				f(0, l.A)
				s(l.B)
				f(2, l.C)
			case bytecode.LkMaddFSR:
				f(0, l.A)
				s(l.B)
				r(2, l.C)
			case bytecode.LkMaddRSF:
				r(0, l.A)
				s(l.B)
				f(2, l.C)
			case bytecode.LkMaddRSR:
				r(0, l.A)
				s(l.B)
				r(2, l.C)
			case bytecode.LkMaddFFF:
				f(0, l.A)
				f(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddFFR:
				f(0, l.A)
				f(1, l.B)
				r(2, l.C)
			case bytecode.LkMaddFRF:
				f(0, l.A)
				r(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddFRR:
				f(0, l.A)
				r(1, l.B)
				r(2, l.C)
			case bytecode.LkMaddRRF:
				r(0, l.A)
				r(1, l.B)
				f(2, l.C)
			case bytecode.LkMaddRRR:
				r(0, l.A)
				r(1, l.B)
				r(2, l.C)
			case bytecode.LkAccAddF, bytecode.LkAccMulF, bytecode.LkTMulF,
				bytecode.LkMergeMaddTF:
				f(0, l.A)
			case bytecode.LkAccAddR, bytecode.LkAccMulR, bytecode.LkTMulR,
				bytecode.LkMergeMaddTR:
				r(0, l.A)
			case bytecode.LkMergeMulT, bytecode.LkMergeAddT:
				// no operands beyond the two accumulators
			default:
				panic(fmt.Sprintf("native: unhandled link kind %v", l.Kind))
			}
			t.links = append(t.links, x)
		}
	}
	k.tm = t
}

// exec is the per-worker executable state: a private copy of the link
// array with register-row pointers and pool scalars resolved, plus the
// worker's accumulator and scratch strips.
type exec struct {
	links   []xlink
	acc, tt []float64
}

func setPtr(l *xlink, pos int8, p unsafe.Pointer) {
	switch pos {
	case 0:
		l.pa = p
	case 1:
		l.pb = p
	default:
		l.pc = p
	}
}

// patchRow points every field operand at the current row. The single
// bounds check per operand here replaces the VM's per-instruction slice
// checks; a violation panics exactly where the VM's slicing would.
func (k *Kernel) patchRow(e *exec, n int, bases []int) {
	r := &k.drv.Resolved
	for _, p := range k.tm.fs {
		off := bases[r.Slots[p.slot].Field] + r.SlotOff[p.slot]
		data := r.SlotData[p.slot]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: row [%d:%d) out of bounds of slot %d (len %d)",
				off, off+n, p.slot, len(data)))
		}
		setPtr(&e.links[p.li], p.pos, unsafe.Pointer(&data[off]))
	}
	for _, p := range k.tm.es {
		off := bases[r.Outs[p.eq].Field]
		data := r.OutData[p.eq]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: store row [%d:%d) out of bounds of eq %d (len %d)",
				off, off+n, p.eq, len(data)))
		}
		e.links[p.li].pa = unsafe.Pointer(&data[off])
	}
}

// scratch is one worker's private sweep state: the register file and a
// cached exec whose register-row pointers are re-patched (allocation-free)
// whenever the row pitch or the register backing array changes.
type scratch struct {
	regs   []float64
	ex     *exec
	stride int
}

// Run executes the fused program at every point of the box for logical
// timestep t. The shared tile driver gives it the engine execution
// contract exactly — row-major point order, equations in program order on
// each row, tiling over the outer dimension, worker-pool parallelism and
// the Progress prod between tiles — so all halo-exchange modes run
// unchanged.
func (k *Kernel) Run(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	k.drv.Run(k, t, b, pool, opts)
}

// Prep implements runtime.RowExec. Register rows are re-pointed only when
// geometry changed; scalar-pool values are refreshed every Run (BindSyms
// produces a new pool per operator/shot). Steady state with unchanged
// geometry performs no allocation.
func (k *Kernel) Prep(sc *scratch, maxRow int, pool []float64) {
	if n := k.bk.NumRegisters() * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
		sc.ex = nil
	}
	if sc.ex == nil {
		sc.ex = &exec{
			links: append([]xlink(nil), k.tm.links...),
			acc:   make([]float64, stripN),
			tt:    make([]float64, stripN),
		}
		sc.stride = -1
	}
	if sc.stride != maxRow {
		sc.stride = maxRow
		for _, p := range k.tm.rs {
			setPtr(&sc.ex.links[p.li], p.pos, unsafe.Pointer(&sc.regs[int(p.reg)*maxRow]))
		}
	}
	for _, p := range k.tm.ss {
		sc.ex.links[p.li].sv = pool[p.pool]
	}
}

// ExecRow implements runtime.RowExec: every segment once over the row,
// fused chains through the strip primitives and VM-fallback segments
// through the bytecode engine's own row sweep.
func (k *Kernel) ExecRow(sc *scratch, n int, bases []int, pool []float64) {
	k.patchRow(sc.ex, n, bases)
	for _, seg := range k.segs {
		if seg.shape == bytecode.ShapeVM {
			bytecode.Sweep(seg.vm, &k.drv.Resolved, sc.regs, sc.stride, n, bases, pool)
			continue
		}
		sc.ex.runChain(sc.ex.links[seg.lkLo:seg.lkHi], n)
	}
}
