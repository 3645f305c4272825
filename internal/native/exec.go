package native

import (
	"fmt"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// patch says which pointer takes the address of table entry idx; which
// table is the list it is on. With ti < 0 the pointer is link li's own
// (pos 0 = destination, 1..3 = X, Y, Z); otherwise it belongs to term ti
// of a pTaps link (pos 0 = f, 1 = g). On the scalar list pos selects the
// term's scalar the same way.
type patch struct {
	li, ti int32
	pos    int8
	idx    int32
}

// ptr returns the pointer a patch re-points.
func (l *xlink) ptr(p patch) *unsafe.Pointer {
	if p.ti < 0 {
		return &l.p[p.pos]
	}
	return &l.terms[p.ti].p[p.pos]
}

// scalar returns the scalar a patch on the ss list refreshes.
func (l *xlink) scalar(p patch) *float64 {
	if p.ti < 0 {
		return &l.sv
	}
	return &l.terms[p.ti].s[p.pos]
}

// tmpl is the kernel's immutable executable template: the flat link array
// with primitives, steps, exponents and term tables filled and pointers
// nil, plus one patch list per operand class.
type tmpl struct {
	links  []xlink
	fs     []patch // load slots, re-pointed every row (see fieldPtr)
	es     []patch // equation outputs, re-pointed every row
	rs     []patch // register rows, re-pointed when the row pitch changes
	strips []patch // idx 0 = the worker's acc strip, 1 = its t strip
	ss     []patch // scalar-pool entries, copied into sv every Run
}

// buildTemplate flattens the chain segments' links into the template and
// records each segment's link range. Fusing tap runs is the executor's
// business: the dispatch count stays one per bytecode link.
func (k *Kernel) buildTemplate(segs []bytecode.Segment) {
	t := &tmpl{}
	k.segs = make([]segment, len(segs))
	for i, seg := range segs {
		k.segs[i] = segment{shape: seg.Shape, vm: seg.VM, lkLo: len(t.links)}
		k.fusedInstrs += len(seg.Links) + len(seg.VM)
		t.addChain(seg.Links)
		k.segs[i].lkHi = len(t.links)
	}
	k.tm = t
	k.groupLoads()
}

// addChain appends one chain: every maximal run of taps as one pTaps link
// (addTaps), every other link as itself.
func (t *tmpl) addChain(ls []bytecode.Link) {
	for len(ls) > 0 {
		n := t.addTaps(ls)
		if n == 0 {
			t.add(ls[0])
			n = 1
		}
		ls = ls[n:]
	}
}

// operand puts one operand of link li (or, with ti >= 0, of its term ti)
// on its class's patch list and returns the bytes it advances per point.
func (t *tmpl) operand(li, ti int32, pos int8, o bytecode.Operand) uint8 {
	p := patch{li, ti, pos, o.Index}
	switch o.Class {
	case bytecode.ClassF:
		t.fs = append(t.fs, p)
		return 4
	case bytecode.ClassR:
		t.rs = append(t.rs, p)
		return 8
	case bytecode.ClassAcc:
		p.idx = 0
		t.strips = append(t.strips, p)
	case bytecode.ClassT:
		p.idx = 1
		t.strips = append(t.strips, p)
	case bytecode.ClassS:
		t.ss = append(t.ss, p)
	}
	return 0
}

// add appends one link: the destination and every operand go on their
// class's patch list with their per-point step.
func (t *tmpl) add(l bytecode.Link) {
	if l.Op == bytecode.LinkMadd && l.Z.Class == bytecode.ClassF {
		// No primitive takes a float32 addend: run the product link, then
		// add the field row to it. f64(x*y) + f(z) == f(z) + f64(x*y)
		// bitwise, IEEE addition commuting in value.
		t.add(bytecode.Link{Op: bytecode.LinkMul, Dst: l.Dst, X: l.X, Y: l.Y})
		t.add(bytecode.Link{Op: bytecode.LinkAdd, Dst: l.Dst, X: l.Z, Y: bytecode.Operand{Class: l.Dst}})
		return
	}
	li := int32(len(t.links))
	x := xlink{prim: primOf(l), exp: int(l.N)}
	operand := func(pos int8, o bytecode.Operand) { x.step[pos] = t.operand(li, -1, pos, o) }
	switch l.Op {
	case bytecode.LinkToRow:
		operand(0, bytecode.Operand{Class: bytecode.ClassR, Index: l.N})
	case bytecode.LinkStore:
		t.es = append(t.es, patch{li, -1, 0, l.N})
		x.step[0] = 4
	default:
		operand(0, bytecode.Operand{Class: l.Dst})
	}
	operand(1, l.X)
	operand(2, l.Y)
	operand(3, l.Z)
	t.links = append(t.links, x)
}

// tapAt reports how many links the tap at the head of ls spans, 0 if
// there is none. A tap adds one product to a running sum: the plain F×S
// madd, or the compound form t = g·s [; t = t·s2] ; acc = f64(f·t) + acc.
// The executor never writes the compound form's t, so the form is a tap
// only if the next link touching t reopens it.
func tapAt(ls []bytecode.Link) int {
	const F, T, S = bytecode.ClassF, bytecode.ClassT, bytecode.ClassS
	if l := ls[0]; l.Op == bytecode.LinkMadd && l.X.Class == F && l.Y.Class == S && l.Z.Class != F {
		return 1
	}
	scales := func(l bytecode.Link, x bytecode.Class) bool {
		return l.Op == bytecode.LinkMul && l.Dst == T && l.X.Class == x && l.Y.Class == S
	}
	if !scales(ls[0], F) {
		return 0
	}
	n := 1
	if n < len(ls) && scales(ls[n], T) {
		n++
	}
	if n == len(ls) {
		return 0
	}
	if m := ls[n]; m.Op != bytecode.LinkMadd || m.Dst != bytecode.ClassAcc ||
		m.X.Class != F || m.Y.Class != T || m.Z.Class != bytecode.ClassAcc {
		return 0
	}
	n++
	for _, l := range ls[n:] {
		if l.X.Class == T || l.Y.Class == T || l.Z.Class == T {
			return 0
		}
		if l.Dst == T {
			break
		}
	}
	return n
}

// addTaps appends the maximal run of taps at the head of ls as one pTaps
// link and returns the number of links it absorbed (0: ls opens with no
// tap). The first tap's madd fixes the run's addend z and destination d;
// the run extends over every following tap that accumulates d onto d.
func (t *tmpl) addTaps(ls []bytecode.Link) int {
	li := int32(len(t.links))
	x := xlink{prim: pTaps}
	var d bytecode.Class
	used := 0
	for used < len(ls) {
		span := tapAt(ls[used:])
		if span == 0 {
			break
		}
		tap := ls[used : used+span]
		madd := tap[span-1]
		if used == 0 {
			d = madd.Dst
			x.step[0] = t.operand(li, -1, 0, bytecode.Operand{Class: d})
			x.step[3] = t.operand(li, -1, 3, madd.Z)
		} else if madd.Dst != d || madd.Z.Class != d {
			break
		}
		ti := int32(len(x.terms))
		x.terms = append(x.terms, term{n: span - 1})
		t.operand(li, ti, 0, madd.X) // f
		if span == 1 {
			t.operand(li, ti, 0, madd.Y) // s
		} else {
			t.operand(li, ti, 1, tap[0].X) // g
			for i, scale := range tap[:span-1] {
				t.operand(li, ti, int8(i), scale.Y) // s, s2
			}
		}
		used += span
	}
	if used > 0 {
		t.links = append(t.links, x)
	}
	return used
}

// primOf selects a link's primitive from its operation and its operands'
// memory kinds; acc, t and register rows are all float64 rows to it. pTaps
// sits where the madd family's F×S pairing would.
func primOf(l bytecode.Link) prim {
	fx, fy, sy := l.X.Class == bytecode.ClassF, l.Y.Class == bytecode.ClassF, l.Y.Class == bytecode.ClassS
	pairing := pMulRR
	switch {
	case fx && sy:
		pairing = pMulFS
	case sy:
		pairing = pMulRS
	case fx && fy:
		pairing = pMulFF
	case fx:
		pairing = pMulFR
	}
	pairing -= pMulFS // the pairing's offset within any of the three families
	switch l.Op {
	case bytecode.LinkMov:
		return pMovS
	case bytecode.LinkMul:
		return pMulFS + pairing
	case bytecode.LinkAdd:
		return pAddFS + pairing
	case bytecode.LinkMadd:
		return pTaps + pairing // addTaps takes every F×S madd first
	case bytecode.LinkToRow:
		return pCopy
	case bytecode.LinkStore:
		return pStore
	}
	switch { // LinkPow
	case fx:
		return pPowF
	case l.N == 2:
		return pSq
	case l.N == -1:
		return pRecip
	case l.N == -2:
		return pRecipSq
	}
	return pPowR
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
	row    unsafe.Pointer // &data[base+lo] on the current row
}

// fieldPtr is one field operand of the worker's links: the pointer to
// re-point every row, the row pointer of the group it reads, and its
// distance from it in bytes.
type fieldPtr struct {
	dst, row *unsafe.Pointer
	off      int
}

// exec is the per-worker executable state: a private copy of the link
// array with register-row and strip pointers and pool scalars resolved,
// plus the worker's accumulator and scratch strips. fs parallels the
// template's fs patch list.
type exec struct {
	links  []xlink
	strips [2][]float64 // acc, t
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
		links:  append([]xlink(nil), k.tm.links...),
		strips: [2][]float64{make([]float64, stripN), make([]float64, stripN)},
		groups: make([]rowGroup, len(k.groupSlot)),
		fs:     make([]fieldPtr, len(k.tm.fs)),
	}
	for i := range e.links { // the copy above shares the term tables
		l := &e.links[i]
		l.terms = append([]term(nil), l.terms...)
	}
	for _, p := range k.tm.strips {
		e.links[p.li].p[p.pos] = unsafe.Pointer(&e.strips[p.idx][0])
	}
	for i, p := range k.tm.fs {
		e.fs[i] = fieldPtr{dst: e.links[p.li].ptr(p), row: &e.groups[k.fsGroup[i]].row}
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
		e.fs[i].off = 4 * (r.SlotOff[p.idx] - e.groups[k.fsGroup[i]].lo)
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
		g.row = unsafe.Pointer(&g.data[lo])
	}
	for _, f := range e.fs {
		*f.dst = unsafe.Add(*f.row, f.off)
	}
	r := &k.drv.Resolved
	for _, p := range k.tm.es {
		off := bases[r.Outs[p.idx].Field]
		data := r.OutData[p.idx]
		if off < 0 || off+n > len(data) {
			panic(fmt.Sprintf("native: store row [%d:%d) out of bounds of eq %d (len %d)",
				off, off+n, p.idx, len(data)))
		}
		e.links[p.li].p[p.pos] = unsafe.Pointer(&data[off])
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
			sc.ex.links[p.li].p[p.pos] = unsafe.Pointer(&sc.regs[int(p.idx)*maxRow])
		}
	}
	for _, p := range k.tm.ss {
		*sc.ex.links[p.li].scalar(p) = pool[p.idx]
	}
	k.resolveGroups(sc.ex)
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
		runChain(sc.ex.links[seg.lkLo:seg.lkHi], n)
	}
}
