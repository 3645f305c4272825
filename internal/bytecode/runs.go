package bytecode

// This file is the engine-introspection surface of the bytecode compiler:
// an exported, read-only view of the compiled row program plus the
// opcode-run extraction the native engine builds its specialized bulk-row
// kernels from. The bytecode VM itself never consults runs — it dispatches
// per instruction — but extracting the runs here, from the same program
// both engines execute, is what keeps the two backends bit-exact: the
// native engine lowers the *identical* operation sequence, and the
// conformance tests assert that every opcode and every link form stays
// covered by scenario kernels.

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/runtime"
)

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
// those chains and lowers every instruction of the program into a *link*
// program — one operation × operands × destination per link — that the
// native engine executes as one run, block by block in registers: one
// fused pass replaces a dozen row passes.
//
// Three analyses make the fusion exact:
//
//   - Deferred loads. A load instruction materializes a float64 row from
//     float32 field memory. Inside a chain the row is never built: each
//     consuming link re-reads the field directly (class F operand). Because
//     float32→float64 conversion is exact and no load is consumed past a
//     store to its buffer (ExtractSegments refuses a program where one
//     is), re-reading per use is bit-identical to loading once.
//
//   - Register provenance. Every register is tracked as slot-backed (a
//     deferred load), row-backed (materialized by a chain's torow
//     terminator), or chain-owned. Chain operands resolve to F (re-read
//     field), R (read the register row), S (scalar pool) or one of the
//     chain's two accumulators (acc, t).
//
//   - Scratch chains. Per-tap compound coefficients (mulvs t=..; mulvs
//     t=t*..; maddvv acc+=t*load) lower into a second accumulator:
//     links with destination t build it and a link reading both acc and t
//     folds it into acc, so the scratch register is never materialized
//     either.

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

// Count reports how many of the link's operands have class c.
func (l Link) Count(c Class) int {
	n := 0
	for _, o := range [...]Operand{l.X, l.Y, l.Z} {
		if o.Class == c {
			n++
		}
	}
	return n
}

// Segment is one contiguous region [Lo, Hi) of the row program lowered to
// a fused link chain. Its last link is its one terminator: a torow when the
// chain's value outlives it, a store when the value is only stored.
type Segment struct {
	Lo, Hi int
	Links  []Link
	// Writers names, for each register-row operand of Links in link and
	// X, Y, Z order, the segment whose torow wrote the row it reads (an
	// index into the partition). A row is named by its writer, not by its
	// register, since the allocator reuses registers.
	Writers []int
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

// ExtractSegments lowers every instruction of a row program into fused
// chain segments, which the native engine executes as one run. The
// partition is a pure function of the program and its binding, so every
// rank derives the identical segment list.
//
// A load is deferred into the links that consume it, and a run executes
// them point by point, so the program must not tell the two orders apart
// (checkPointLocal); ExtractSegments returns checkPointLocal's error for a
// program that can.
func ExtractSegments(prog []Instr, bd *runtime.Binding) ([]Segment, error) {
	if err := checkPointLocal(prog, bd); err != nil {
		return nil, err
	}
	src := makeSrc(prog)
	x := &extractor{prog: prog, src: src, lsrc: make([]regSrc, len(src)),
		free: make([]Link, 0, 2*len(prog))}
	var segs []Segment
	for i := 0; i < len(prog); {
		if in := prog[i]; in.Op == OpLoad {
			x.src[in.Rd] = regSrc{kind: srcSlot, slot: in.B}
			i++
			continue
		}
		seg, err := x.chain(i)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		i = seg.Hi
	}
	writer := make([]int, len(src)) // the last segment to drain into each register
	for i := range segs {
		seg := &segs[i]
		for _, l := range seg.Links {
			for _, o := range [...]Operand{l.X, l.Y, l.Z} {
				if o.Class == ClassR {
					seg.Writers = append(seg.Writers, writer[o.Index])
				}
			}
		}
		if l := seg.Links[len(seg.Links)-1]; l.Op == LinkToRow {
			writer[l.N] = i
		}
	}
	return segs, nil
}

// Invariant reports which segments of a partition compute, at every
// point, a value that holds still while the fields written accepts are
// not written: those that end in a torow, whose field operands all read a
// single-buffer field written does not accept, and whose register-row
// operands were all written by invariant segments. Their scalars come from
// the bound pool, which holds still for a Run.
func Invariant(segs []Segment, bd *runtime.Binding, written func(*field.Function) bool) []bool {
	inv := make([]bool, len(segs))
	for i, seg := range segs {
		ok := seg.Links[len(seg.Links)-1].Op == LinkToRow
		w := 0
		for _, l := range seg.Links {
			for _, o := range [...]Operand{l.X, l.Y, l.Z} {
				switch o.Class {
				case ClassF:
					f := bd.Fields[bd.Slots[o.Index].Field]
					ok = ok && len(f.Bufs) == 1 && !written(f)
				case ClassR:
					ok = ok && inv[seg.Writers[w]]
					w++
				}
			}
		}
		inv[i] = ok
	}
	return inv
}

// checkPointLocal is the precondition of deferring loads into a run: a
// deferred load must never observe a store to its own buffer that the
// VM's row sweep would not have. Point-local aliasing (a CIRE scratch
// kernel re-reading the zero-offset point it overwrites) is safe — each
// point's reads precede its own store in both orders — so two cases
// remain, and each is an error naming the equation and the slot:
//
//   - a read of a stored buffer at a nonzero stencil offset, which would
//     make per-point execution see neighbours the row sweep has not
//     written yet (ir splits such reads across equations into separate
//     clusters);
//   - a load consumed past a store to its buffer, which would re-read
//     overwritten memory (the compiler drops a field's cached loads when
//     an equation stores it).
func checkPointLocal(prog []Instr, bd *runtime.Binding) error {
	storer := map[runtime.Out]int{} // a stored buffer -> the first equation storing it
	for e := len(bd.Outs) - 1; e >= 0; e-- {
		storer[bd.Outs[e]] = e
	}
	buffer := func(e int) string {
		o := bd.Outs[e]
		return fmt.Sprintf("equation %d stores %s at time offset %+d", e, bd.Names[o.Field], o.TimeOff)
	}
	for si, s := range bd.Slots {
		if e, ok := storer[runtime.Out{Field: s.Field, TimeOff: s.TimeOff}]; ok && s.Off != [runtime.MaxDims]int{} {
			return fmt.Errorf("bytecode: %s, which slot %d reads at stencil offset %v: the read is not point-local",
				buffer(e), si, s.Off)
		}
	}
	for i, in := range prog {
		if in.Op != OpLoad {
			continue
		}
		s := bd.Slots[in.B]
		if _, ok := storer[runtime.Out{Field: s.Field, TimeOff: s.TimeOff}]; !ok {
			continue
		}
		storedBy := -1 // the first equation to store the loaded buffer since the load
		for _, jn := range prog[i+1:] {
			if storedBy >= 0 && readsReg(jn, in.Rd) {
				return fmt.Errorf("bytecode: %s after slot %d loads it and before the load is consumed",
					buffer(storedBy), in.B)
			}
			if jn.Op == OpStore {
				if o := bd.Outs[jn.B]; storedBy < 0 && o.Field == s.Field && o.TimeOff == s.TimeOff {
					storedBy = int(jn.B)
				}
			} else if jn.Rd == in.Rd {
				break
			}
		}
	}
	return nil
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
	prog []Instr
	src  []regSrc
	// lsrc and snap are chain's working copy of src and its backtrack
	// copy, reused from chain to chain.
	lsrc, snap []regSrc
	// free is the unused tail of the array backing the segments' links:
	// a chain appends its own there. A program lowers to at most two links
	// per instruction (one per instruction, plus a terminator per chain,
	// and a chain takes at least one instruction), which sizes the first
	// array.
	free []Link
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
		if in.Op != OpStore && in.Rd == r {
			return true
		}
	}
	return true
}

// chain lowers the fused chain starting at prog[i], which is not a load,
// and commits the provenance updates of everything the chain consumed. A
// chain takes at least one instruction: a store no chain feeds moves the
// stored value into acc first (mov.f or mov.r), and any other instruction
// opens a chain of its own. The error is a register read before any
// instruction wrote it.
func (x *extractor) chain(i int) (Segment, error) {
	prog := x.prog
	lsrc := x.lsrc
	copy(lsrc, x.src)
	acc, tacc := int32(-1), int32(-1)
	links := x.free[:0]
	// Scratch-chain backtrack point: if a tentative t-chain never merges,
	// the main chain ends before it.
	snapJ, snapLinks := -1, 0

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
	dead := func() error {
		return fmt.Errorf("bytecode: instruction %d (%s) reads a register no earlier instruction wrote", i, OpName(prog[i].Op))
	}
	drain := Link{Dst: ClassAcc, X: Operand{Class: ClassAcc}}

	if in := prog[i]; in.Op == OpStore {
		c, idx := cls(in.A)
		if c == ClassNone {
			return Segment{}, dead()
		}
		drain.Op, drain.N = LinkStore, in.B
		return Segment{Lo: i, Hi: i + 1, Links: x.commit(append(links, Link{Op: LinkMov, Dst: ClassAcc, X: Operand{c, idx}}, drain))}, nil
	}

	j := i
loop:
	for j < len(prog) {
		in := prog[j]
		if in.Op == OpLoad {
			if in.Rd == acc || in.Rd == tacc {
				break // the load would clobber a live accumulator register
			}
			lsrc[in.Rd] = regSrc{kind: srcSlot, slot: in.B}
			j++
			continue
		}
		l, ok := lowerLink(in, cls)
		if !ok {
			break // a store or a dead operand: the chain ends here
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
			snapJ, snapLinks = j, len(links)
			x.snap = append(x.snap[:0], lsrc...)
			tacc = in.Rd
		default:
			break loop
		}
		links = append(links, l)
		j++
	}

	if tacc >= 0 && snapJ >= 0 {
		// The scratch chain never merged: rewind to just before it opened.
		j, links = snapJ, links[:snapLinks]
		copy(lsrc, x.snap)
	}
	if acc < 0 {
		return Segment{}, dead()
	}
	if j < len(prog) && prog[j].Op == OpStore && prog[j].A == acc && regDead(prog, j+1, acc) {
		drain.Op, drain.N = LinkStore, prog[j].B
		lsrc[acc] = regSrc{}
		j++
	} else {
		drain.Op, drain.N = LinkToRow, acc
		lsrc[acc] = regSrc{kind: srcRow}
	}
	copy(x.src, lsrc)
	return Segment{Lo: i, Hi: j, Links: x.commit(append(links, drain))}, nil
}

// commit takes a chain's links, appended to x.free, and returns them
// capped so that nothing appended to the segment reaches the next.
func (x *extractor) commit(links []Link) []Link {
	x.free = links[len(links):]
	return links[:len(links):len(links)]
}

// lowerLink builds the link computing in's result: the opcode fixes the
// operation, cls the class of each register operand. It fails on a load,
// a store and a dead register.
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
	case OpCopy:
		l.Op, l.X = LinkMov, v(in.A)
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
// compound coefficients need no more), the main accumulator does not
// advance while it is open, and a move only opens a chain.
func place(l *Link, accOpen, tOpen bool) role {
	nAcc, nT := l.Count(ClassAcc), l.Count(ClassT)
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
		if ontoAcc && !tOpen && l.Op != LinkMov {
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
// running each opcode a link computes over every assignment of operand
// classes and accumulator state through lowerLink and place — the rules
// chain applies — rather than from a table. The native engine derives its
// handler set from this list and its conformance ledger requires a
// scenario for each entry.
func LinkShapes() []Link {
	shapes := []Link{
		{Op: LinkToRow, Dst: ClassAcc, X: Operand{Class: ClassAcc}},
		{Op: LinkStore, Dst: ClassAcc, X: Operand{Class: ClassAcc}},
	}
	seen := map[string]bool{}
	classes := [...]Class{ClassF, ClassR, ClassAcc, ClassT}
	for op := OpCopy; op <= OpPowV; op++ {
		for a := 0; a < 64; a++ {
			regs := [3]Class{classes[a&3], classes[a>>2&3], classes[a>>4]}
			cls := func(r int32) (Class, int32) { return regs[r], 0 }
			l, ok := lowerLink(Instr{Op: op, A: 0, B: 1, C: 2}, cls)
			if !ok {
				continue
			}
			l.X.Index, l.Y.Index = 0, 0 // a scalar operand carries the probe's pool index
			accOpen := l.Count(ClassAcc)+l.Count(ClassT) > 0
			tOpen := l.Count(ClassT) > 0
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

// Segments extracts the kernel's own fused-segment partition (see
// ExtractSegments for the error).
func (k *Kernel) Segments() ([]Segment, error) {
	return ExtractSegments(k.prog, k.drv.Binding)
}
