package bytecode

// This file is the engine-introspection surface of the bytecode compiler:
// an exported, read-only view of the compiled row program plus the
// opcode-run extraction the native engine builds its specialized bulk-row
// kernels from. The bytecode VM itself never consults runs — it dispatches
// per instruction — but extracting the runs here, from the same program
// both engines execute, is what keeps the two backends bit-exact: the
// native engine lowers the *identical* operation sequence, and the
// conformance tests assert that every opcode, every run shape and every
// link form stays covered by scenario kernels.

import "devigo/internal/runtime"

// OpName returns the mnemonic of a vector opcode.
func OpName(op byte) string {
	switch op {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCopy:
		return "copy"
	case OpMovS:
		return "movs"
	case OpAddVV:
		return "addvv"
	case OpAddVS:
		return "addvs"
	case OpMulVV:
		return "mulvv"
	case OpMulVS:
		return "mulvs"
	case OpMaddVV:
		return "maddvv"
	case OpMaddVS:
		return "maddvs"
	case OpPowV:
		return "powv"
	}
	return "?"
}

// Program returns the compiled row program (shared, read-only).
func (k *Kernel) Program() []Instr { return k.prog }

// ---------------------------------------------------------------------------
// Opcode-run extraction: partitioning the row program into fused chains.
//
// The register VM pays one dispatch and one full row pass per instruction.
// Real compiled programs are dominated by *accumulation chains*: a value is
// opened (mulvs/maddvs/...), extended by madds, scaled, and finally stored
// — with the interleaved loads feeding each tap. The extraction rediscovers
// those chains and lowers them into a *link* program — one operation ×
// operands × destination per link — that the native engine executes over
// cache-resident accumulator strips: one fused pass replaces a dozen row
// passes.
//
// Three analyses make the fusion exact:
//
//   - Deferred loads. A load instruction materializes a float64 row from
//     float32 field memory. Inside a chain the row is never built: each
//     consuming link re-reads the field directly (class F operand). Because
//     float32→float64 conversion is exact and loads are pure (the program
//     never stores to a buffer it loads — ExtractSegments falls back to a
//     single VM segment if it does), re-reading per use is bit-identical to
//     loading once. Loads whose consumers end up in VM segments are
//     re-emitted there at first use.
//
//   - Register provenance. Every register is tracked as slot-backed (a
//     deferred load), row-backed (materialized by a VM instruction or a
//     chain's torow terminator), or chain-owned. Chain operands resolve
//     to F (re-read field), R (read the register row), S (scalar pool) or
//     one of the chain's two strips (acc, t).
//
//   - Scratch chains. Per-tap compound coefficients (mulvs t=..; mulvs
//     t=t*..; maddvv acc+=t*load) lower into a second accumulator:
//     links with destination t build it and a link reading both acc and t
//     folds it into acc, so the scratch register is never materialized
//     either.

// Shape classifies one extracted segment.
type Shape int

const (
	// ShapeVM is the fallback: the native engine executes the segment's
	// instructions with per-instruction row sweeps, exactly like the VM.
	ShapeVM Shape = iota
	// ShapeChain is a fused accumulation chain whose value survives the
	// chain: the terminating torow link materializes the accumulator
	// into its register row for later segments.
	ShapeChain
	// ShapeChainStore is a fused chain consumed solely by the store that
	// terminates it: the store link rounds the accumulator to float32
	// straight into field memory and no row is ever written.
	ShapeChainStore
)

// ShapeNames lists every segment shape with its diagnostic name, in Shape
// order (the conformance table test iterates this).
func ShapeNames() []string { return []string{"vm", "chain", "chain-store"} }

// String returns the shape's diagnostic name ("vm", "chain",
// "chain-store").
func (s Shape) String() string {
	names := ShapeNames()
	if int(s) >= 0 && int(s) < len(names) {
		return names[s]
	}
	return "?"
}

// LinkOp is a link's operation. LinkMadd rounds after the multiply and
// after the add — float64(x*y) + z — exactly like the VM's madd opcodes
// (dispatch fusion, not IEEE fusion).
type LinkOp byte

const (
	LinkMov   LinkOp = iota // dst = X
	LinkMul                 // dst = X * Y
	LinkAdd                 // dst = X + Y
	LinkMadd                // dst = f64(X*Y) + Z
	LinkPow                 // dst = ipow(X, N)
	LinkToRow               // terminator: regs[N][i] = X
	LinkStore               // terminator: out(eq N)[i] = float32(X)
)

var linkOpNames = [...]string{"mov", "mul", "add", "madd", "pow", "torow", "store"}

// Class is where an operand's value lives. The declaration order is the
// canonical order of a commutative operand pair (see lowerLink).
type Class byte

const (
	ClassNone Class = iota // operand absent (or, during lowering, a dead register)
	ClassF                 // field access: Index is a load slot, re-read as float32 and widened
	ClassAcc               // the chain's accumulator strip
	ClassT                 // the chain's scratch strip
	ClassR                 // register row: Index is a row register
	ClassS                 // scalar: Index is a pool entry
)

const classLetters = "-fatrs"

// Operand is one source of a link.
type Operand struct {
	Class Class
	Index int32
}

// Link is one fused per-point operation of a chain, in factored form: an
// operation, up to three source operands and the strip its result lands
// in. Dst is ClassAcc or ClassT; the two terminators drain the accumulator
// (X is always ClassAcc) into the register row or equation output N. N is
// also LinkPow's exponent.
type Link struct {
	Op      LinkOp
	Dst     Class
	X, Y, Z Operand
	N       int32
}

// String composes the link's form from its parts — operation, then one
// class letter per operand (f a t r s), prefixed "t." when the result
// lands in the scratch strip: "mul.fs", "madd.fsa", "t.mul.ft", "store".
// Indices are omitted, so equal strings mean equal executor paths.
func (l Link) String() string {
	s := linkOpNames[l.Op]
	if l.Op >= LinkToRow {
		return s
	}
	if l.Dst == ClassT {
		s = "t." + s
	}
	s += "."
	for _, o := range [...]Operand{l.X, l.Y, l.Z} {
		if o.Class != ClassNone {
			s += classLetters[o.Class : o.Class+1]
		}
	}
	return s
}

// count reports how many of the link's operands have class c.
func (l Link) count(c Class) int {
	n := 0
	for _, o := range [...]Operand{l.X, l.Y, l.Z} {
		if o.Class == c {
			n++
		}
	}
	return n
}

// Segment is one contiguous region [Lo, Hi) of the row program, lowered
// either to a fused link chain (Links) or to a verbatim VM instruction
// list (VM — which may re-emit deferred load instructions consumed here).
type Segment struct {
	Shape  Shape
	Lo, Hi int
	Links  []Link
	VM     []Instr
}

// register provenance during extraction.
const (
	srcNone byte = iota // never written / dead
	srcRow              // materialized register row
	srcSlot             // deferred load: value lives in field memory
)

type regSrc struct {
	kind byte
	slot int32
}

// ExtractSegments partitions a row program into fused chain segments and
// VM fallback segments. The partition is a pure function of the program
// and its slot/eq tables, so every rank (and every Rebind copy) derives
// the identical segment list.
//
// Deferral safety around stores: a deferred load must never observe a
// store to its own buffer that the VM's earlier load would have missed.
// Point-local aliasing (a CIRE scratch kernel re-reading the zero-offset
// point it overwrites) is safe — each point's reads precede its own store
// in both orders — so only two cases restrict fusion: a load whose
// register is consumed *past* a store to the loaded buffer is pinned to
// its original position in a VM segment (materializeMask), and a program
// that loads a stored buffer at a nonzero stencil offset (which would make
// per-point execution see neighbors the row-sweep order has not written
// yet) falls back to one verbatim VM segment.
func ExtractSegments(prog []Instr, slots []runtime.Slot, eqs []runtime.Out) []Segment {
	for _, e := range eqs {
		for _, s := range slots {
			if s.Field == e.Field && s.TimeOff == e.TimeOff && s.Off != [runtime.MaxDims]int{} {
				return []Segment{{Shape: ShapeVM, Lo: 0, Hi: len(prog),
					VM: append([]Instr(nil), prog...)}}
			}
		}
	}
	x := &extractor{prog: prog, src: makeSrc(prog), vmHave: map[int32]int32{},
		mustMat: materializeMask(prog, slots, eqs)}
	i := 0
	for i < len(prog) {
		in := prog[i]
		if in.Op == OpLoad {
			if x.mustMat[i] {
				x.vmEmit(i, in)
				x.src[in.Rd] = regSrc{kind: srcRow}
				i++
				continue
			}
			x.src[in.Rd] = regSrc{kind: srcSlot, slot: in.B}
			delete(x.vmHave, in.Rd)
			i++
			continue
		}
		if seg, next, ok := x.tryChain(i); ok {
			x.flushVM(i)
			x.segs = append(x.segs, seg)
			i = next
			x.vmLo = next
			continue
		}
		x.vmEmit(i, in)
		i++
	}
	x.flushVM(len(prog))
	return x.segs
}

// materializeMask marks load instructions whose register is consumed after
// a store to the loaded buffer: deferring those would re-read overwritten
// memory, so they are pinned to their original program position instead.
func materializeMask(prog []Instr, slots []runtime.Slot, eqs []runtime.Out) []bool {
	type bufKey struct{ f, t int }
	storeAt := map[bufKey][]int{}
	for i, in := range prog {
		if in.Op == OpStore {
			e := eqs[in.B]
			k := bufKey{e.Field, e.TimeOff}
			storeAt[k] = append(storeAt[k], i)
		}
	}
	mask := make([]bool, len(prog))
	if len(storeAt) == 0 {
		return mask
	}
	for i, in := range prog {
		if in.Op != OpLoad {
			continue
		}
		s := slots[in.B]
		ps := storeAt[bufKey{s.Field, s.TimeOff}]
		if len(ps) == 0 {
			continue
		}
	consumers:
		for j := i + 1; j < len(prog); j++ {
			jn := prog[j]
			if readsReg(jn, in.Rd) {
				for _, p := range ps {
					if p > i && p <= j {
						mask[i] = true
						break consumers
					}
				}
			}
			if jn.Op != OpStore && jn.Rd == in.Rd {
				break
			}
		}
	}
	return mask
}

func makeSrc(prog []Instr) []regSrc {
	max := int32(0)
	for _, in := range prog {
		if in.Rd > max {
			max = in.Rd
		}
		if in.A > max {
			max = in.A
		}
		if in.C > max {
			max = in.C
		}
	}
	return make([]regSrc, max+1)
}

type extractor struct {
	prog    []Instr
	src     []regSrc
	segs    []Segment
	vm      []Instr
	vmLo    int
	vmHave  map[int32]int32 // reg -> 1+slot already loaded in the open VM segment
	mustMat []bool          // loads that cannot be deferred (see materializeMask)
}

func (x *extractor) flushVM(hi int) {
	if len(x.vm) > 0 {
		x.segs = append(x.segs, Segment{Shape: ShapeVM, Lo: x.vmLo, Hi: hi, VM: x.vm})
		x.vm = nil
	}
	for k := range x.vmHave {
		delete(x.vmHave, k)
	}
	x.vmLo = hi
}

// vmEmit routes one instruction to the open VM segment, materializing any
// deferred loads it consumes first.
func (x *extractor) vmEmit(i int, in Instr) {
	if len(x.vm) == 0 {
		x.vmLo = i
	}
	for _, r := range vecReads(in) {
		if s := x.src[r]; s.kind == srcSlot && x.vmHave[r] != s.slot+1 {
			x.vm = append(x.vm, Instr{Op: OpLoad, Rd: r, B: s.slot})
			x.vmHave[r] = s.slot + 1
		}
	}
	x.vm = append(x.vm, in)
	if in.Op != OpStore {
		x.src[in.Rd] = regSrc{kind: srcRow}
		delete(x.vmHave, in.Rd)
	}
}

// vecReads lists the row registers an instruction reads.
func vecReads(in Instr) []int32 {
	switch in.Op {
	case OpStore, OpCopy, OpAddVS, OpMulVS, OpPowV:
		return []int32{in.A}
	case OpAddVV, OpMulVV:
		return []int32{in.A, in.B}
	case OpMaddVS:
		return []int32{in.A, in.C}
	case OpMaddVV:
		return []int32{in.A, in.B, in.C}
	}
	return nil
}

// readsReg reports whether in reads register r as a vector operand.
func readsReg(in Instr, r int32) bool {
	for _, v := range vecReads(in) {
		if v == r {
			return true
		}
	}
	return false
}

// regDead reports whether register r is never read from prog[from:] before
// being overwritten.
func regDead(prog []Instr, from int, r int32) bool {
	for _, in := range prog[from:] {
		if readsReg(in, r) {
			return false
		}
		if in.Op != OpStore && in.Op != OpLoad && in.Rd == r {
			return true
		}
		if in.Op == OpLoad && in.Rd == r {
			return true
		}
	}
	return true
}

// tryChain attempts to lower a fused chain starting at prog[i]. On success
// it returns the segment and the index of the first instruction after it,
// and commits the provenance updates of everything the chain consumed.
func (x *extractor) tryChain(i int) (Segment, int, bool) {
	prog := x.prog
	lsrc := append([]regSrc(nil), x.src...)
	acc, tacc := int32(-1), int32(-1)
	var links []Link
	computes := 0
	// Scratch-chain backtrack point: if a tentative t-chain never merges,
	// the main chain ends before it.
	snapJ, snapLinks, snapComputes := -1, 0, 0
	var snapSrc []regSrc

	cls := func(r int32) (Class, int32) {
		switch {
		case r == acc && acc >= 0:
			return ClassAcc, r
		case r == tacc && tacc >= 0:
			return ClassT, r
		}
		switch s := lsrc[r]; s.kind {
		case srcSlot:
			return ClassF, s.slot
		case srcRow:
			return ClassR, r
		}
		return ClassNone, r
	}

	j := i
loop:
	for j < len(prog) {
		in := prog[j]
		if in.Op == OpLoad {
			if in.Rd == acc || in.Rd == tacc {
				break // the load would clobber a live accumulator register
			}
			if x.mustMat[j] {
				break // pinned load: the top-level walk materializes it
			}
			lsrc[in.Rd] = regSrc{kind: srcSlot, slot: in.B}
			j++
			continue
		}
		l, ok := lowerLink(in, cls)
		if !ok {
			break // store, copy or a dead operand: the chain ends here
		}
		switch place(&l, acc >= 0, tacc >= 0) {
		case roleOpen:
			acc = in.Rd
		case roleMerge:
			if !regDead(prog, j+1, tacc) {
				break loop
			}
			if in.Rd != acc && !regDead(prog, j+1, acc) {
				break loop
			}
			if in.Rd != acc {
				lsrc[acc] = regSrc{}
				acc = in.Rd
			}
			lsrc[tacc] = regSrc{}
			tacc = -1
			snapJ = -1
		case roleAdvanceT:
			if in.Rd != tacc {
				break loop // no handoff: the scratch register stays fixed until merged
			}
		case roleAdvance:
			if in.Rd != acc {
				// Accumulator handoff: the value moves to a new register.
				if !regDead(prog, j+1, acc) {
					break loop
				}
				lsrc[acc] = regSrc{}
				acc = in.Rd
			}
		case roleOpenT:
			if in.Rd == acc {
				break loop
			}
			snapJ, snapLinks, snapComputes = j, len(links), computes
			snapSrc = append([]regSrc(nil), lsrc...)
			tacc = in.Rd
		default:
			break loop
		}
		links = append(links, l)
		computes++
		j++
	}

	if tacc >= 0 && snapJ >= 0 {
		// The scratch chain never merged: rewind to just before it opened.
		j, links, computes, lsrc = snapJ, links[:snapLinks], snapComputes, snapSrc
	}
	if acc < 0 {
		return Segment{}, 0, false
	}

	seg := Segment{Lo: i}
	drain := Link{Dst: ClassAcc, X: Operand{Class: ClassAcc}}
	if j < len(prog) && prog[j].Op == OpStore && prog[j].A == acc && regDead(prog, j+1, acc) {
		seg.Shape = ShapeChainStore
		drain.Op, drain.N = LinkStore, prog[j].B
		lsrc[acc] = regSrc{}
		j++
	} else {
		if computes < 2 {
			return Segment{}, 0, false
		}
		seg.Shape = ShapeChain
		drain.Op, drain.N = LinkToRow, acc
		lsrc[acc] = regSrc{kind: srcRow}
	}
	if computes < 1 {
		return Segment{}, 0, false
	}
	seg.Hi = j
	seg.Links = append(links, drain)
	copy(x.src, lsrc)
	return seg, j, true
}

// lowerLink builds the link computing in's result: the opcode fixes the
// operation, cls the class of each register operand. It fails on the
// non-arithmetic opcodes (load, store, copy) and on a dead register.
//
// Commutative canonicalization: the operands of a VV multiply or add (and
// a madd's multiplicands) are put in Class order, F first. IEEE mul/add
// are commutative in value (including signed zeros); the only observable
// difference under swapping is *which* NaN payload survives when both
// operands are NaN, and every runtime-generated NaN carries the canonical
// quiet payload, so the engines stay bit-exact even after overflow.
func lowerLink(in Instr, cls func(int32) (Class, int32)) (Link, bool) {
	ok := true
	v := func(r int32) Operand {
		c, idx := cls(r)
		ok = ok && c != ClassNone
		return Operand{c, idx}
	}
	s := Operand{ClassS, in.B}
	l := Link{Dst: ClassAcc}
	switch in.Op {
	case OpMovS:
		l.Op, l.X = LinkMov, s
	case OpMulVS:
		l.Op, l.X, l.Y = LinkMul, v(in.A), s
	case OpAddVS:
		l.Op, l.X, l.Y = LinkAdd, v(in.A), s
	case OpMulVV:
		l.Op, l.X, l.Y = LinkMul, v(in.A), v(in.B)
	case OpAddVV:
		l.Op, l.X, l.Y = LinkAdd, v(in.A), v(in.B)
	case OpMaddVS:
		l.Op, l.X, l.Y, l.Z = LinkMadd, v(in.A), s, v(in.C)
	case OpMaddVV:
		l.Op, l.X, l.Y, l.Z = LinkMadd, v(in.A), v(in.B), v(in.C)
	case OpPowV:
		l.Op, l.X, l.N = LinkPow, v(in.A), in.B
	default:
		return Link{}, false
	}
	if l.Y.Class != ClassNone && l.X.Class > l.Y.Class {
		l.X, l.Y = l.Y, l.X
	}
	return l, ok
}

// role is the position a link may take in a chain.
type role byte

const (
	roleNone     role = iota // the link cannot extend the chain
	roleOpen                 // acc = op(...): opens the chain
	roleAdvance              // acc = op(acc, ...)
	roleOpenT                // t = ...: tentatively opens a scratch chain
	roleAdvanceT             // t = op(t, ...)
	roleMerge                // acc = op(acc, t, ...): folds the scratch chain in
)

// place decides which role a lowered link may take given which
// accumulators are open, and sets its destination. The rules are over
// operand classes only: an accumulator enters a link at most once; a madd
// extends an accumulator only as its addend; the scratch chain is opened
// by a multiply and advanced by a multiply or a scalar madd (per-tap
// compound coefficients need no more), and the main accumulator does not
// advance while it is open.
func place(l *Link, accOpen, tOpen bool) role {
	nAcc, nT := l.count(ClassAcc), l.count(ClassT)
	ontoAcc := nAcc == 1 && (l.Op != LinkMadd || l.Z.Class == ClassAcc)
	switch {
	case !accOpen:
		return roleOpen
	case nAcc > 0 && nT > 0:
		if ontoAcc && nT == 1 {
			return roleMerge
		}
	case nT > 0:
		if nT == 1 && (l.Op == LinkMul || l.Op == LinkMadd && l.Y.Class == ClassS && l.Z.Class == ClassT) {
			l.Dst = ClassT
			return roleAdvanceT
		}
	case nAcc > 0:
		if ontoAcc && !tOpen {
			return roleAdvance
		}
	case l.Op == LinkMul && !tOpen:
		l.Dst = ClassT
		return roleOpenT
	}
	return roleNone
}

// LinkShapes enumerates every link the extraction can emit, one
// representative (indices zero, LinkPow's exponent 1) per String form, by
// running each arithmetic opcode over every assignment of operand classes
// and accumulator state through lowerLink and place — the rules tryChain
// applies — rather than from a table. The native engine derives its
// handler set from this list and its conformance ledger requires a
// scenario for each entry.
func LinkShapes() []Link {
	shapes := []Link{
		{Op: LinkToRow, Dst: ClassAcc, X: Operand{Class: ClassAcc}},
		{Op: LinkStore, Dst: ClassAcc, X: Operand{Class: ClassAcc}},
	}
	seen := map[string]bool{}
	classes := [...]Class{ClassF, ClassR, ClassAcc, ClassT}
	for op := OpMovS; op <= OpPowV; op++ {
		for a := 0; a < 64; a++ {
			regs := [3]Class{classes[a&3], classes[a>>2&3], classes[a>>4]}
			cls := func(r int32) (Class, int32) { return regs[r], 0 }
			l, ok := lowerLink(Instr{Op: op, A: 0, B: 1, C: 2}, cls)
			if !ok {
				continue
			}
			l.X.Index, l.Y.Index = 0, 0 // a scalar operand carries the probe's pool index
			accOpen := l.count(ClassAcc)+l.count(ClassT) > 0
			tOpen := l.count(ClassT) > 0
			for _, st := range [...][2]bool{{accOpen, tOpen}, {true, tOpen}, {true, true}} {
				cand := l
				if place(&cand, st[0], st[1]) != roleNone && !seen[cand.String()] {
					seen[cand.String()] = true
					shapes = append(shapes, cand)
				}
			}
		}
	}
	return shapes
}

// LinkForms lists the String form of every link shape, in LinkShapes
// order.
func LinkForms() []string {
	var forms []string
	for _, l := range LinkShapes() {
		forms = append(forms, l.String())
	}
	return forms
}

// Segments extracts the kernel's own fused-segment partition.
func (k *Kernel) Segments() []Segment {
	return ExtractSegments(k.prog, k.drv.Slots, k.drv.Outs)
}
