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

// part selects the segments of a kernel's partition a template runs.
type part uint8

const (
	partAll    part = iota // every segment: the run as compiled
	partPrime              // the invariant segments only, draining into the hoisted rows
	partSteady             // every other segment, reading the hoisted rows
	numParts
)

// tmpl is one immutable executable template: the flat op table with
// handlers and exponents filled and pointers nil, the form of every op
// beside it, one patch list per operand class, and the field buffers
// behind the field operands (see groupLoads).
type tmpl struct {
	forms []form
	ops   []xop
	fs    []patch // load slots, pointed at the first row of every run of rows
	es    []patch // equation outputs, likewise
	hs    []patch // hoisted rows (idx is the row's ordinal), likewise, and corrected every row
	rs    []patch // register rows, re-pointed when the row pitch changes
	ss    []patch // scalar-pool entries, copied into s every Run
	// fsGroup[i] is the group of fs patch i, groupSlot[g] the first slot
	// seen of group g (any member names the group's field and data).
	fsGroup   []int32
	groupSlot []int32
}

// buildTemplate flattens the segments p selects into the op table of one
// run: their links, then the end sentinel. The executors walk the run
// block-major: every link of every segment on one block of 16 points, then
// the next block. That order is legal for exactly the reason fusing a chain
// over a row is: chain segments communicate only point-locally. A register
// row a chain drains into (torow) is read back at the same point; and
// ExtractSegments refuses a program that reads a stored buffer at a
// nonzero offset or consumes a load past a store of its buffer, so a field
// access inside the run either reads a buffer the run never stores or
// re-reads, at offset zero, the point its own block just stored
// (TestChainSegmentsArePointLocal).
//
// partAll takes every segment and ignores inv and hoisted (nil is fine);
// partPrime takes the segments inv marks and partSteady the others. In
// both, a segment with a hoisted row — hoisted[i] is its ordinal, or -1
// when none — drains into that row instead of a register row, and every
// read of what it drained reads the row.
func buildTemplate(segs []bytecode.Segment, inv []bool, hoisted []int32, p part) *tmpl {
	picked := func(i int) bool { return p == partAll || inv[i] == (p == partPrime) }
	// Size every table first: one op per link, one patch per operand of
	// its class, and one per torow or store destination.
	var n, nf, nr, ns, ne int
	for i, seg := range segs {
		if !picked(i) {
			continue
		}
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
	for i, seg := range segs {
		if !picked(i) {
			continue
		}
		// A register row's reader takes its writer from the segment's
		// Writers, in operand order.
		reads := 0
		for _, l := range seg.Links {
			li := t.add(l)
			for pos, opnd := range [...]bytecode.Operand{l.X, l.Y, l.Z} {
				if opnd.Class != bytecode.ClassR {
					continue
				}
				h := int32(-1)
				if p != partAll {
					h = hoisted[seg.Writers[reads]]
				}
				t.row(patch{li, int8(pos), opnd.Index}, h)
				reads++
			}
			if l.Op == bytecode.LinkToRow {
				h := int32(-1)
				if p != partAll {
					h = hoisted[i]
				}
				t.row(patch{li, 0, l.N}, h)
			}
		}
	}
	t.forms = append(t.forms, forms[0])
	t.ops = append(t.ops, xop{h: handlers(0)})
	return t
}

// add appends one link: its form's handlers, and every operand that lives
// in a field or in the scalar pool, and a store's destination, on its
// class's patch list. Register rows are the caller's (see row). It returns
// the link's index in the table.
func (t *tmpl) add(l bytecode.Link) int32 {
	f := formOf(l)
	fi, ok := formIndex[f]
	if !ok {
		panic(fmt.Sprintf("native: link form %s is not in bytecode.LinkShapes", f))
	}
	li := int32(len(t.ops))
	o := xop{h: handlers(fi)}
	switch l.Op {
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
		case bytecode.ClassS:
			t.ss = append(t.ss, p)
		}
	}
	t.forms = append(t.forms, f)
	t.ops = append(t.ops, o)
	return li
}

// row puts a register-row operand or destination on the register-row
// list, or on the hoisted-row list as hoisted row h when h >= 0.
func (t *tmpl) row(p patch, h int32) {
	if h < 0 {
		t.rs = append(t.rs, p)
		return
	}
	p.idx = h
	t.hs = append(t.hs, p)
}

// groupLoads numbers the field buffers behind the template's fs patches.
func (t *tmpl) groupLoads(slots []runtime.Slot) {
	type buffer struct{ field, timeOff int }
	seen := map[buffer]int32{}
	t.fsGroup = make([]int32, len(t.fs))
	for i, p := range t.fs {
		b := buffer{slots[p.idx].Field, slots[p.idx].TimeOff}
		g, ok := seen[b]
		if !ok {
			g = int32(len(t.groupSlot))
			seen[b] = g
			t.groupSlot = append(t.groupSlot, p.idx)
		}
		t.fsGroup[i] = g
	}
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
	row    addr // &data[base+lo] on the first row of the run in flight
}

// fieldPtr is one field operand of the worker's links: its group, and its
// distance in bytes from the group's row address.
type fieldPtr struct {
	group int32
	off   addr
}

// skew is one operand whose row moves by another pitch than the run's: the
// op-table slot holding its address (p[pos] of op li) and the bytes it is
// corrected by between rows. A row's field operands and stores are
// addressed from the run's first row by the row's offset in the run's
// pitch (see ExecRows); a buffer with another row pitch differs by the
// difference, and a hoisted row, which that offset does not move, by its
// whole pitch.
type skew struct {
	li  int32
	pos int8
	d   addr
}

// exec is the per-worker executable state of one template: a private copy
// of its op table with register-row pointers and pool scalars resolved.
// fs parallels the template's fs patch list; skews lists the operands of
// the run of rows in flight that need a correction per row.
type exec struct {
	ops    []xop
	groups []rowGroup
	fs     []fieldPtr
	skews  []skew
	stride int // the row pitch the register rows are pointed with; -1 before the first
}

// newExec builds one worker's executable state from a template.
func newExec(tm *tmpl) *exec {
	e := &exec{
		ops:    append([]xop(nil), tm.ops...),
		groups: make([]rowGroup, len(tm.groupSlot)),
		fs:     make([]fieldPtr, len(tm.fs)),
		skews:  make([]skew, 0, len(tm.fs)+len(tm.es)+len(tm.hs)),
		stride: -1,
	}
	for i := range tm.fs {
		e.fs[i].group = tm.fsGroup[i]
	}
	return e
}

// resolveGroups refreshes the groups' data and displacement extents, and
// every field operand's distance from its group's row address, against
// the driver's Resolved — once per Run: buffer rotation moves the data,
// halo growth the displacements.
func (k *Kernel) resolveGroups(tm *tmpl, e *exec) {
	r := &k.drv.Resolved
	for g, slot := range tm.groupSlot {
		off := r.SlotOff[slot]
		e.groups[g] = rowGroup{field: r.Slots[slot].Field, data: r.SlotData[slot], lo: off, hi: off}
	}
	for i, p := range tm.fs {
		g := &e.groups[tm.fsGroup[i]]
		g.lo, g.hi = min(g.lo, r.SlotOff[p.idx]), max(g.hi, r.SlotOff[p.idx])
	}
	for i, p := range tm.fs {
		e.fs[i].off = addr(4 * (r.SlotOff[p.idx] - e.groups[tm.fsGroup[i]].lo))
	}
}

// patchRows points every operand that lives in a buffer at the first row
// of a run of rows rows, n points each, and returns the run's pitch: the
// row pitch of the first output's field, by which every next row's offset
// in the run grows (see ExecRows). The operands whose rows move by another
// pitch — a buffer with another halo, a hoisted row — go on the worker's
// skews. One bounds check per buffer per run — the span from the group's
// extent on the first row to its extent on the last, which contains every
// member's row on every row of the run — replaces the VM's
// per-instruction slice checks; a violation panics, naming the operand,
// before any link touches memory.
func (k *Kernel) patchRows(tm *tmpl, e *exec, n, rows int, bases, pitch []int) int {
	last := rows - 1
	r := &k.drv.Resolved
	run := pitch[r.Outs[0].Field]
	e.skews = e.skews[:0]
	for gi := range e.groups {
		g := &e.groups[gi]
		base, pf := bases[g.field], pitch[g.field]
		if base+g.lo < 0 || base+last*pf+g.hi+n > len(g.data) {
			k.rowOutOfBounds(tm, n, rows, bases, pitch)
		}
		g.row = addrOf(unsafe.Pointer(&g.data[base+g.lo]))
	}
	for i, f := range e.fs {
		g := &e.groups[f.group]
		p := tm.fs[i]
		e.ops[p.li].p[p.pos] = g.row + f.off
		if pf := pitch[g.field]; pf != run {
			e.skews = append(e.skews, skew{p.li, p.pos, addr(4 * (pf - run))})
		}
	}
	for _, p := range tm.es {
		field := r.Outs[p.idx].Field
		off, data, pf := bases[field], r.OutData[p.idx], pitch[field]
		if off < 0 || off+last*pf+n > len(data) {
			panic(fmt.Sprintf("native: store row [%d:%d) out of bounds of eq %d (len %d)",
				off, off+last*pf+n, p.idx, len(data)))
		}
		e.ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&data[off]))
		if pf != run {
			e.skews = append(e.skews, skew{p.li, p.pos, addr(4 * (pf - run))})
		}
	}
	if len(tm.hs) == 0 {
		return run
	}
	h := &k.hoist
	off, hp := h.locate(r.Fields[h.ref], bases[h.ref], n, rows)
	for _, p := range tm.hs {
		e.ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&h.rows[int(p.idx)*h.size+off]))
		e.skews = append(e.skews, skew{p.li, p.pos, addr(8 * hp)})
	}
	return run
}

// rowOutOfBounds names the first field operand whose row leaves its
// buffer, once a group's extent did: row by row, the per-operand check.
func (k *Kernel) rowOutOfBounds(tm *tmpl, n, rows int, bases, pitch []int) {
	r := &k.drv.Resolved
	for row := 0; row < rows; row++ {
		for _, p := range tm.fs {
			field := r.Slots[p.idx].Field
			off := bases[field] + row*pitch[field] + r.SlotOff[p.idx]
			if data := r.SlotData[p.idx]; off < 0 || off+n > len(data) {
				panic(fmt.Sprintf("native: row [%d:%d) out of bounds of slot %d (len %d)",
					off, off+n, p.idx, len(data)))
			}
		}
	}
}

// scratch is one worker's private sweep state: the register file and one
// cached exec per template, whose register-row pointers are re-patched
// (allocation-free) whenever the row pitch or the register backing array
// changes.
type scratch struct {
	regs []float64
	ex   [numParts]*exec
}

// Run executes the fused program at every point of the box for logical
// timestep t. The shared tile driver gives it the engine execution
// contract exactly — row-major point order, equations in program order on
// each row, tiling over the outer dimension and worker-pool parallelism
// — so all halo-exchange modes run unchanged. Between Prime and Unprime a box inside the primed one runs
// the steady template, reading the hoisted rows; every other Run runs
// every segment.
func (k *Kernel) Run(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	k.cur = partAll
	if k.hoist.covers(b) {
		k.cur = partSteady
	}
	k.drv.Run(k, t, b, pool, opts)
}

// Prep implements runtime.RowExec for the template the Run in flight
// executes. Register rows are re-pointed only when geometry changed;
// scalar-pool values and the field-buffer groups are refreshed every Run
// (a bind may fill the pool with new values, the driver a new Resolved
// per step). Steady state with unchanged geometry performs no allocation.
func (k *Kernel) Prep(sc *scratch, maxRow int, pool []float64) {
	tm := k.tms[k.cur]
	if n := k.bk.NumRegisters() * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
		sc.ex = [numParts]*exec{}
	}
	e := sc.ex[k.cur]
	if e == nil {
		e = newExec(tm)
		sc.ex[k.cur] = e
	}
	if e.stride != maxRow {
		e.stride = maxRow
		for _, p := range tm.rs {
			e.ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&sc.regs[int(p.idx)*maxRow]))
		}
	}
	for _, p := range tm.ss {
		e.ops[p.li].s = math.Float64bits(pool[p.idx])
	}
	k.resolveGroups(tm, e)
}

// ExecRows implements runtime.RowExec: the operands are addressed once for
// the run of rows, and the run executes once per row, each row named by its
// offset from the first in the run's pitch; in between, only the operands
// on the skews list move.
func (k *Kernel) ExecRows(sc *scratch, n, rows int, bases, pitch []int, _ []float64) {
	tm, e := k.tms[k.cur], sc.ex[k.cur]
	run := k.patchRows(tm, e, n, rows, bases, pitch)
	fs := tm.forms[:len(tm.forms)-1]
	for r := 0; ; {
		runOps(fs, e.ops, n, r*run)
		if r++; r == rows {
			return
		}
		for _, s := range e.skews {
			e.ops[s.li].p[s.pos] += s.d
		}
	}
}
