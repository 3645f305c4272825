package native

import (
	"fmt"
	"math"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// patch says which slot of the op table takes the address (or, on the
// scalar list, the value) of table entry idx; which table is the list it is
// on. pos is the operand: p[pos] of op li.
type patch struct {
	li  int32
	pos int8
	idx int32
}

// tmpl is the kernel's immutable executable template: the flat op table
// with handlers and exponents filled and pointers nil, the form of every
// op beside it, and one patch list per operand class.
type tmpl struct {
	forms []form
	ops   []xop
	fs    []patch // load slots, re-pointed every row (see fieldPtr)
	es    []patch // equation outputs, re-pointed every row
	rs    []patch // register rows, re-pointed when the row pitch changes
	ss    []patch // scalar-pool entries, copied into s every Run
}

// buildTemplate flattens the segments into the op table of one run: every
// segment's links, then the end sentinel. The executors walk the run
// block-major: every link of every segment on one block of 16 points, then
// the next block. That order is legal for exactly the reason fusing a chain
// over a row is: chain segments communicate only point-locally. A register
// row a chain drains into (torow) is read back at the same point; and
// ExtractSegments refuses a program that reads a stored buffer at a
// nonzero offset or consumes a load past a store of its buffer, so a field
// access inside the run either reads a buffer the run never stores or
// re-reads, at offset zero, the point its own block just stored
// (TestChainSegmentsArePointLocal).
func buildTemplate(segs []bytecode.Segment) *tmpl {
	// Size every table first: one op per link, one patch per operand of
	// its class, and one per torow or store destination.
	var n, nf, nr, ns, ne int
	for _, seg := range segs {
		for _, l := range seg.Links {
			n++
			switch l.Op {
			case bytecode.LinkToRow:
				nr++
			case bytecode.LinkStore:
				ne++
			}
			nf += l.Count(bytecode.ClassF)
			nr += l.Count(bytecode.ClassR)
			ns += l.Count(bytecode.ClassS)
		}
	}
	t := &tmpl{forms: make([]form, 0, n+1), ops: make([]xop, 0, n+1),
		fs: make([]patch, 0, nf), rs: make([]patch, 0, nr), ss: make([]patch, 0, ns), es: make([]patch, 0, ne)}
	for _, seg := range segs {
		for _, l := range seg.Links {
			t.add(l)
		}
	}
	t.forms = append(t.forms, forms[0])
	t.ops = append(t.ops, xop{h: handlers(0)})
	return t
}

// add appends one link: its form's handlers, and every operand that lives
// in memory or in the scalar pool on its class's patch list.
func (t *tmpl) add(l bytecode.Link) {
	f := formOf(l)
	fi, ok := formIndex[f]
	if !ok {
		panic(fmt.Sprintf("native: link form %s is not in bytecode.LinkShapes", f))
	}
	li := int32(len(t.ops))
	o := xop{h: handlers(fi)}
	switch l.Op {
	case bytecode.LinkToRow:
		t.rs = append(t.rs, patch{li, 0, l.N})
	case bytecode.LinkStore:
		t.es = append(t.es, patch{li, 0, l.N})
	case bytecode.LinkPow:
		o.s = uint64(int64(l.N))
	}
	for pos, opnd := range [...]bytecode.Operand{l.X, l.Y, l.Z} {
		p := patch{li, int8(pos), opnd.Index}
		switch opnd.Class {
		case bytecode.ClassF:
			t.fs = append(t.fs, p)
		case bytecode.ClassR:
			t.rs = append(t.rs, p)
		case bytecode.ClassS:
			t.ss = append(t.ss, p)
		}
	}
	t.forms = append(t.forms, f)
	t.ops = append(t.ops, o)
}

// rowGroup is one field buffer the chains read: the load slots of one
// (field, time offset) share its data and its row base, and differ only by
// their flat stencil displacement. lo and hi are the least and greatest
// displacement among them, so the group's rows span [base+lo, base+hi+n):
// that span inside the buffer puts every member's row inside it.
type rowGroup struct {
	field  int // index into the driver's row bases
	data   []float32
	lo, hi int
	row    addr // &data[base+lo] on the current row
}

// fieldPtr is one field operand of the worker's links: the address to
// re-point every row, the row address of the group it reads, and its
// distance from it in bytes.
type fieldPtr struct {
	dst, row *addr
	off      addr
}

// exec is the per-worker executable state: a private copy of the op table
// with register-row pointers and pool scalars resolved. fs parallels the
// template's fs patch list.
type exec struct {
	ops    []xop
	groups []rowGroup
	fs     []fieldPtr
}

// groupLoads numbers the field buffers behind the template's fs patches:
// fsGroup[i] is the group of patch i, groupSlot[g] the first slot seen of
// group g (any member names the group's field and data).
func (k *Kernel) groupLoads() {
	slots := k.bk.Binding().Slots
	type buffer struct{ field, timeOff int }
	seen := map[buffer]int32{}
	k.fsGroup = make([]int32, len(k.tm.fs))
	for i, p := range k.tm.fs {
		b := buffer{slots[p.idx].Field, slots[p.idx].TimeOff}
		g, ok := seen[b]
		if !ok {
			g = int32(len(k.groupSlot))
			seen[b] = g
			k.groupSlot = append(k.groupSlot, p.idx)
		}
		k.fsGroup[i] = g
	}
}

// newExec builds one worker's executable state from the template.
func (k *Kernel) newExec() *exec {
	e := &exec{
		ops:    append([]xop(nil), k.tm.ops...),
		groups: make([]rowGroup, len(k.groupSlot)),
		fs:     make([]fieldPtr, len(k.tm.fs)),
	}
	for i, p := range k.tm.fs {
		e.fs[i] = fieldPtr{dst: &e.ops[p.li].p[p.pos], row: &e.groups[k.fsGroup[i]].row}
	}
	return e
}

// resolveGroups refreshes the groups' data and displacement extents, and
// every field operand's distance from its group's row pointer, against the
// driver's Resolved — once per Run: buffer rotation moves the data, halo
// growth the displacements.
func (k *Kernel) resolveGroups(e *exec) {
	r := &k.drv.Resolved
	for g, slot := range k.groupSlot {
		off := r.SlotOff[slot]
		e.groups[g] = rowGroup{field: r.Slots[slot].Field, data: r.SlotData[slot], lo: off, hi: off}
	}
	for i, p := range k.tm.fs {
		g := &e.groups[k.fsGroup[i]]
		g.lo, g.hi = min(g.lo, r.SlotOff[p.idx]), max(g.hi, r.SlotOff[p.idx])
	}
	for i, p := range k.tm.fs {
		e.fs[i].off = addr(4 * (r.SlotOff[p.idx] - e.groups[k.fsGroup[i]].lo))
	}
}

// patchRow points every field operand at the current row. One bounds check
// per field buffer per row — the group's extent, which contains every
// member's row — replaces the VM's per-instruction slice checks; a
// violation panics exactly where the VM's slicing would.
func (k *Kernel) patchRow(e *exec, n int, bases []int) {
	for gi := range e.groups {
		g := &e.groups[gi]
		lo := bases[g.field] + g.lo
		if lo < 0 || bases[g.field]+g.hi+n > len(g.data) {
			k.rowOutOfBounds(n, bases)
		}
		g.row = addrOf(unsafe.Pointer(&g.data[lo]))
	}
	for _, f := range e.fs {
		*f.dst = *f.row + f.off
	}
	r := &k.drv.Resolved
	for _, p := range k.tm.es {
		off := bases[r.Outs[p.idx].Field]
		data := r.OutData[p.idx]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: store row [%d:%d) out of bounds of eq %d (len %d)",
				off, off+n, p.idx, len(data)))
		}
		e.ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&data[off]))
	}
}

// rowOutOfBounds names the first field operand whose row leaves its
// buffer, once a group's extent did.
func (k *Kernel) rowOutOfBounds(n int, bases []int) {
	r := &k.drv.Resolved
	for _, p := range k.tm.fs {
		off := bases[r.Slots[p.idx].Field] + r.SlotOff[p.idx]
		if data := r.SlotData[p.idx]; off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: row [%d:%d) out of bounds of slot %d (len %d)",
				off, off+n, p.idx, len(data)))
		}
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
// geometry changed; scalar-pool values and the field-buffer groups are
// refreshed every Run (BindSyms produces a new pool per operator/shot, the
// driver a new Resolved per step). Steady state with unchanged geometry
// performs no allocation.
func (k *Kernel) Prep(sc *scratch, maxRow int, pool []float64) {
	if n := k.bk.NumRegisters() * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
		sc.ex = nil
	}
	if sc.ex == nil {
		sc.ex = k.newExec()
		sc.stride = -1
	}
	if sc.stride != maxRow {
		sc.stride = maxRow
		for _, p := range k.tm.rs {
			sc.ex.ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&sc.regs[int(p.idx)*maxRow]))
		}
	}
	for _, p := range k.tm.ss {
		sc.ex.ops[p.li].s = math.Float64bits(pool[p.idx])
	}
	k.resolveGroups(sc.ex)
}

// ExecRow implements runtime.RowExec: the run once over the row.
func (k *Kernel) ExecRow(sc *scratch, n int, bases []int, _ []float64) {
	k.patchRow(sc.ex, n, bases)
	runOps(k.tm.forms[:len(k.tm.forms)-1], sc.ex.ops, n)
}
