package bytecode

// This file is the engine-introspection surface of the bytecode compiler:
// an exported, read-only view of the compiled row program plus the
// opcode-run extraction the native engine builds its specialized bulk-row
// kernels from. The bytecode VM itself never consults runs — it dispatches
// per instruction — but extracting the runs here, from the same program
// both engines execute, is what keeps the two backends bit-exact: the
// native engine lowers the *identical* operation sequence, and the
// conformance tests assert that every opcode and every run shape stays
// covered by real scenario kernels.

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
// those chains and lowers them into a per-point *link* program the native
// engine executes with the accumulator held in a CPU register: one fused
// loop replaces a dozen row passes.
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
//     chain's LkToRow terminator), or chain-owned. Chain operands resolve
//     to F (re-read field), R (read the register row) or S (scalar pool).
//
//   - Scratch chains. Per-tap compound coefficients (mulvs t=..; mulvs
//     t=t*..; maddvv acc+=t*load) lower into a second accumulator: the
//     LkT* links build t and a LkMerge* link folds it into acc, so the
//     scratch register is never materialized either.
//
// Commutative canonicalization: mul/add vector operands are swapped into
// F-before-R order so one link kind covers both orders. IEEE mul/add are
// commutative in value (including signed zeros); the only observable
// difference under swapping is *which* NaN payload survives when both
// operands are NaN, and every runtime-generated NaN carries the canonical
// quiet payload, so the engines stay bit-exact even after overflow.

// Shape classifies one extracted segment.
type Shape int

const (
	// ShapeVM is the fallback: the native engine executes the segment's
	// instructions with per-instruction row sweeps, exactly like the VM.
	ShapeVM Shape = iota
	// ShapeChain is a fused accumulation chain whose value survives the
	// chain: the terminating LkToRow link materializes the accumulator
	// into its register row for later segments.
	ShapeChain
	// ShapeChainStore is a fused chain consumed solely by the store that
	// terminates it: the LkStore link rounds the accumulator to float32
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

// LinkKind enumerates the fused per-point operations of a chain. Operand
// classes in the mnemonic: F = field access (A/B/C is a load-slot index;
// the link re-reads float32 memory and widens), R = register row (index
// into the row-register file), S = scalar pool entry. "f()" below denotes
// the float32→float64 widening read of an F operand. Every multiply-add
// rounds after the multiply and after the add — float64(x*y) + z — exactly
// like the VM's madd opcodes (dispatch fusion, not IEEE fusion).
type LinkKind byte

const (
	// Terminators.
	LkToRow LinkKind = iota // regs[A][i] = acc
	LkStore                 // out(eq A)[i] = float32(acc)

	// Chain openers: acc = ...
	LkMovS    // acc = S[A]
	LkMulFS   // acc = f(A) * S[B]
	LkMulRS   // acc = R[A] * S[B]
	LkMulFF   // acc = f(A) * f(B)
	LkMulFR   // acc = f(A) * R[B]
	LkMulRR   // acc = R[A] * R[B]
	LkAddFS   // acc = f(A) + S[B]
	LkAddRS   // acc = R[A] + S[B]
	LkAddFF   // acc = f(A) + f(B)
	LkAddFR   // acc = f(A) + R[B]
	LkAddRR   // acc = R[A] + R[B]
	LkPowF    // acc = ipow(f(A), B)
	LkPowR    // acc = ipow(R[A], B)
	LkMaddFSF // acc = f64(f(A)*S[B]) + f(C)
	LkMaddFSR // acc = f64(f(A)*S[B]) + R[C]
	LkMaddRSF // acc = f64(R[A]*S[B]) + f(C)
	LkMaddRSR // acc = f64(R[A]*S[B]) + R[C]
	LkMaddFFF // acc = f64(f(A)*f(B)) + f(C)
	LkMaddFFR // acc = f64(f(A)*f(B)) + R[C]
	LkMaddFRF // acc = f64(f(A)*R[B]) + f(C)
	LkMaddFRR // acc = f64(f(A)*R[B]) + R[C]
	LkMaddRRF // acc = f64(R[A]*R[B]) + f(C)
	LkMaddRRR // acc = f64(R[A]*R[B]) + R[C]

	// Accumulator links: acc = op(acc, ...).
	LkAccAddS   // acc = acc + S[A]
	LkAccMulS   // acc = acc * S[A]
	LkAccAddF   // acc = acc + f(A)
	LkAccAddR   // acc = acc + R[A]
	LkAccMulF   // acc = acc * f(A)
	LkAccMulR   // acc = acc * R[A]
	LkAccMaddFS // acc = f64(f(A)*S[B]) + acc
	LkAccMaddRS // acc = f64(R[A]*S[B]) + acc
	LkAccMaddFF // acc = f64(f(A)*f(B)) + acc
	LkAccMaddFR // acc = f64(f(A)*R[B]) + acc
	LkAccMaddRR // acc = f64(R[A]*R[B]) + acc
	LkAccPow    // acc = ipow(acc, A)

	// Scratch-accumulator links: t = ...
	LkTMulFS  // t = f(A) * S[B]
	LkTMulRS  // t = R[A] * S[B]
	LkTMulFF  // t = f(A) * f(B)
	LkTMulFR  // t = f(A) * R[B]
	LkTMulRR  // t = R[A] * R[B]
	LkTMulS   // t = t * S[A]
	LkTMulF   // t = t * f(A)
	LkTMulR   // t = t * R[A]
	LkTMaddFS // t = f64(f(A)*S[B]) + t
	LkTMaddRS // t = f64(R[A]*S[B]) + t

	// Merges: fold the scratch accumulator into acc.
	LkMergeMulT   // acc = acc * t
	LkMergeAddT   // acc = acc + t
	LkMergeMaddTS // acc = f64(t*S[A]) + acc
	LkMergeMaddTF // acc = f64(t*f(A)) + acc
	LkMergeMaddTR // acc = f64(t*R[A]) + acc

	// NumLinkKinds is the size of the LinkKind vocabulary (one past the
	// last kind); dispatch tables index [NumLinkKinds]T arrays by kind.
	NumLinkKinds
)

var linkNames = [NumLinkKinds]string{
	LkToRow: "torow", LkStore: "store",
	LkMovS: "movs", LkMulFS: "mul.fs", LkMulRS: "mul.rs", LkMulFF: "mul.ff",
	LkMulFR: "mul.fr", LkMulRR: "mul.rr", LkAddFS: "add.fs", LkAddRS: "add.rs",
	LkAddFF: "add.ff", LkAddFR: "add.fr", LkAddRR: "add.rr",
	LkPowF: "pow.f", LkPowR: "pow.r",
	LkMaddFSF: "madd.fs.f", LkMaddFSR: "madd.fs.r", LkMaddRSF: "madd.rs.f",
	LkMaddRSR: "madd.rs.r", LkMaddFFF: "madd.ff.f", LkMaddFFR: "madd.ff.r",
	LkMaddFRF: "madd.fr.f", LkMaddFRR: "madd.fr.r", LkMaddRRF: "madd.rr.f",
	LkMaddRRR: "madd.rr.r",
	LkAccAddS: "acc.add.s", LkAccMulS: "acc.mul.s", LkAccAddF: "acc.add.f",
	LkAccAddR: "acc.add.r", LkAccMulF: "acc.mul.f", LkAccMulR: "acc.mul.r",
	LkAccMaddFS: "acc.madd.fs", LkAccMaddRS: "acc.madd.rs",
	LkAccMaddFF: "acc.madd.ff", LkAccMaddFR: "acc.madd.fr", LkAccMaddRR: "acc.madd.rr",
	LkAccPow: "acc.pow",
	LkTMulFS: "t.mul.fs", LkTMulRS: "t.mul.rs", LkTMulFF: "t.mul.ff",
	LkTMulFR: "t.mul.fr", LkTMulRR: "t.mul.rr", LkTMulS: "t.mul.s",
	LkTMulF: "t.mul.f", LkTMulR: "t.mul.r",
	LkTMaddFS: "t.madd.fs", LkTMaddRS: "t.madd.rs",
	LkMergeMulT: "merge.mul.t", LkMergeAddT: "merge.add.t",
	LkMergeMaddTS: "merge.madd.ts", LkMergeMaddTF: "merge.madd.tf",
	LkMergeMaddTR: "merge.madd.tr",
}

// String returns the kind's diagnostic mnemonic (e.g. "acc.madd.fs");
// the operand-class vocabulary is documented on LinkKind.
func (k LinkKind) String() string {
	if k < NumLinkKinds {
		return linkNames[k]
	}
	return "?"
}

// Link is one fused per-point operation; A, B, C are interpreted per
// LinkKind (slot index, register index, pool index, or integer exponent).
type Link struct {
	Kind    LinkKind
	A, B, C int32
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

// operand classes during lowering.
const (
	clF byte = iota // slot-backed: re-read field memory
	clR             // row-backed: read the register row
	clAcc
	clT
	clBad
)

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

	cls := func(r int32) (byte, int32) {
		switch {
		case r == acc && acc >= 0:
			return clAcc, r
		case r == tacc && tacc >= 0:
			return clT, r
		}
		switch s := lsrc[r]; s.kind {
		case srcSlot:
			return clF, s.slot
		case srcRow:
			return clR, r
		}
		return clBad, r
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
		if in.Op == OpStore {
			break // stores only terminate chains (handled below)
		}
		switch {
		case acc < 0:
			l, ok := openerLink(in, cls)
			if !ok {
				return Segment{}, 0, false
			}
			acc = in.Rd
			links = append(links, l)
			computes++
		case tacc >= 0 && touches(in, cls, clT):
			if touches(in, cls, clAcc) {
				// Merge t into acc.
				l, ok := mergeLink(in, cls)
				if !ok || !regDead(prog, j+1, tacc) {
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
				links = append(links, l)
				computes++
			} else {
				l, ok := tAccLink(in, cls)
				if !ok || in.Rd != tacc {
					break loop
				}
				links = append(links, l)
				computes++
			}
		case touches(in, cls, clAcc):
			if tacc >= 0 {
				break loop // acc must not advance past an open t-chain
			}
			l, ok := accLink(in, cls)
			if !ok {
				break loop
			}
			if in.Rd != acc {
				// Accumulator handoff: the value moves to a new register.
				if !regDead(prog, j+1, acc) {
					break loop
				}
				lsrc[acc] = regSrc{}
				acc = in.Rd
			}
			links = append(links, l)
			computes++
		default:
			// Neither accumulator involved: tentatively open a scratch chain.
			if tacc >= 0 {
				break loop
			}
			l, ok := tOpenerLink(in, cls)
			if !ok || in.Rd == acc {
				break loop
			}
			snapJ, snapLinks, snapComputes = j, len(links), computes
			snapSrc = append([]regSrc(nil), lsrc...)
			tacc = in.Rd
			links = append(links, l)
			computes++
		}
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
	if j < len(prog) && prog[j].Op == OpStore && prog[j].A == acc && regDead(prog, j+1, acc) {
		seg.Shape = ShapeChainStore
		links = append(links, Link{Kind: LkStore, A: prog[j].B})
		lsrc[acc] = regSrc{}
		j++
	} else {
		if computes < 2 {
			return Segment{}, 0, false
		}
		seg.Shape = ShapeChain
		links = append(links, Link{Kind: LkToRow, A: acc})
		lsrc[acc] = regSrc{kind: srcRow}
	}
	if computes < 1 {
		return Segment{}, 0, false
	}
	seg.Hi = j
	seg.Links = links
	copy(x.src, lsrc)
	return seg, j, true
}

// touches reports whether any vector operand of in has class c.
func touches(in Instr, cls func(int32) (byte, int32), c byte) bool {
	for _, r := range vecReads(in) {
		k, _ := cls(r)
		if k == c {
			return true
		}
	}
	return false
}

// canon orders a commutative (class, idx) operand pair F-before-R.
func canon(ka byte, ia int32, kb byte, ib int32) (byte, int32, byte, int32) {
	if ka == clR && kb == clF {
		return kb, ib, ka, ia
	}
	return ka, ia, kb, ib
}

// openerLink lowers an instruction that produces a fresh accumulator.
func openerLink(in Instr, cls func(int32) (byte, int32)) (Link, bool) {
	switch in.Op {
	case OpMovS:
		return Link{Kind: LkMovS, A: in.B}, true
	case OpMulVS, OpAddVS:
		ka, ia := cls(in.A)
		var k LinkKind
		switch {
		case in.Op == OpMulVS && ka == clF:
			k = LkMulFS
		case in.Op == OpMulVS && ka == clR:
			k = LkMulRS
		case in.Op == OpAddVS && ka == clF:
			k = LkAddFS
		case in.Op == OpAddVS && ka == clR:
			k = LkAddRS
		default:
			return Link{}, false
		}
		return Link{Kind: k, A: ia, B: in.B}, true
	case OpMulVV, OpAddVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		ka, ia, kb, ib = canon(ka, ia, kb, ib)
		var k LinkKind
		switch {
		case ka == clF && kb == clF:
			k = LkMulFF
		case ka == clF && kb == clR:
			k = LkMulFR
		case ka == clR && kb == clR:
			k = LkMulRR
		default:
			return Link{}, false
		}
		if in.Op == OpAddVV {
			k += LkAddFF - LkMulFF
		}
		return Link{Kind: k, A: ia, B: ib}, true
	case OpPowV:
		switch ka, ia := cls(in.A); ka {
		case clF:
			return Link{Kind: LkPowF, A: ia, B: in.B}, true
		case clR:
			return Link{Kind: LkPowR, A: ia, B: in.B}, true
		}
	case OpMaddVS:
		ka, ia := cls(in.A)
		kc, ic := cls(in.C)
		var k LinkKind
		switch {
		case ka == clF && kc == clF:
			k = LkMaddFSF
		case ka == clF && kc == clR:
			k = LkMaddFSR
		case ka == clR && kc == clF:
			k = LkMaddRSF
		case ka == clR && kc == clR:
			k = LkMaddRSR
		default:
			return Link{}, false
		}
		return Link{Kind: k, A: ia, B: in.B, C: ic}, true
	case OpMaddVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		kc, ic := cls(in.C)
		ka, ia, kb, ib = canon(ka, ia, kb, ib)
		var k LinkKind
		switch {
		case ka == clF && kb == clF && kc == clF:
			k = LkMaddFFF
		case ka == clF && kb == clF && kc == clR:
			k = LkMaddFFR
		case ka == clF && kb == clR && kc == clF:
			k = LkMaddFRF
		case ka == clF && kb == clR && kc == clR:
			k = LkMaddFRR
		case ka == clR && kb == clR && kc == clF:
			k = LkMaddRRF
		case ka == clR && kb == clR && kc == clR:
			k = LkMaddRRR
		default:
			return Link{}, false
		}
		return Link{Kind: k, A: ia, B: ib, C: ic}, true
	}
	return Link{}, false
}

// accLink lowers an instruction that advances the accumulator (reading it
// and producing its next value, possibly into a different register).
func accLink(in Instr, cls func(int32) (byte, int32)) (Link, bool) {
	switch in.Op {
	case OpAddVS, OpMulVS:
		if ka, _ := cls(in.A); ka != clAcc {
			return Link{}, false
		}
		if in.Op == OpAddVS {
			return Link{Kind: LkAccAddS, A: in.B}, true
		}
		return Link{Kind: LkAccMulS, A: in.B}, true
	case OpAddVV, OpMulVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		ko, io := kb, ib
		if kb == clAcc {
			if ka == clAcc {
				return Link{}, false
			}
			ko, io = ka, ia
		} else if ka != clAcc {
			return Link{}, false
		}
		var k LinkKind
		switch {
		case in.Op == OpAddVV && ko == clF:
			k = LkAccAddF
		case in.Op == OpAddVV && ko == clR:
			k = LkAccAddR
		case in.Op == OpMulVV && ko == clF:
			k = LkAccMulF
		case in.Op == OpMulVV && ko == clR:
			k = LkAccMulR
		default:
			return Link{}, false
		}
		return Link{Kind: k, A: io}, true
	case OpMaddVS:
		ka, ia := cls(in.A)
		kc, _ := cls(in.C)
		if kc != clAcc {
			return Link{}, false
		}
		switch ka {
		case clF:
			return Link{Kind: LkAccMaddFS, A: ia, B: in.B}, true
		case clR:
			return Link{Kind: LkAccMaddRS, A: ia, B: in.B}, true
		}
	case OpMaddVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		kc, _ := cls(in.C)
		if kc != clAcc {
			return Link{}, false
		}
		ka, ia, kb, ib = canon(ka, ia, kb, ib)
		var k LinkKind
		switch {
		case ka == clF && kb == clF:
			k = LkAccMaddFF
		case ka == clF && kb == clR:
			k = LkAccMaddFR
		case ka == clR && kb == clR:
			k = LkAccMaddRR
		default:
			return Link{}, false
		}
		return Link{Kind: k, A: ia, B: ib}, true
	case OpPowV:
		if ka, _ := cls(in.A); ka != clAcc {
			return Link{}, false
		}
		return Link{Kind: LkAccPow, A: in.B}, true
	}
	return Link{}, false
}

// tOpenerLink lowers an instruction opening a scratch chain.
func tOpenerLink(in Instr, cls func(int32) (byte, int32)) (Link, bool) {
	l, ok := openerLink(in, cls)
	if !ok {
		return Link{}, false
	}
	switch l.Kind {
	case LkMulFS:
		l.Kind = LkTMulFS
	case LkMulRS:
		l.Kind = LkTMulRS
	case LkMulFF:
		l.Kind = LkTMulFF
	case LkMulFR:
		l.Kind = LkTMulFR
	case LkMulRR:
		l.Kind = LkTMulRR
	default:
		return Link{}, false
	}
	return l, true
}

// tAccLink lowers an instruction advancing the scratch accumulator in
// place (no handoff: the scratch register must stay fixed until merged).
func tAccLink(in Instr, cls func(int32) (byte, int32)) (Link, bool) {
	switch in.Op {
	case OpMulVS:
		if ka, _ := cls(in.A); ka != clT {
			return Link{}, false
		}
		return Link{Kind: LkTMulS, A: in.B}, true
	case OpMulVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		ko, io := kb, ib
		if kb == clT {
			if ka == clT {
				return Link{}, false
			}
			ko, io = ka, ia
		} else if ka != clT {
			return Link{}, false
		}
		switch ko {
		case clF:
			return Link{Kind: LkTMulF, A: io}, true
		case clR:
			return Link{Kind: LkTMulR, A: io}, true
		}
	case OpMaddVS:
		ka, ia := cls(in.A)
		kc, _ := cls(in.C)
		if kc != clT {
			return Link{}, false
		}
		switch ka {
		case clF:
			return Link{Kind: LkTMaddFS, A: ia, B: in.B}, true
		case clR:
			return Link{Kind: LkTMaddRS, A: ia, B: in.B}, true
		}
	}
	return Link{}, false
}

// mergeLink lowers an instruction folding the scratch accumulator into acc.
func mergeLink(in Instr, cls func(int32) (byte, int32)) (Link, bool) {
	switch in.Op {
	case OpMulVV, OpAddVV:
		ka, _ := cls(in.A)
		kb, _ := cls(in.B)
		if !(ka == clAcc && kb == clT || ka == clT && kb == clAcc) {
			return Link{}, false
		}
		if in.Op == OpMulVV {
			return Link{Kind: LkMergeMulT}, true
		}
		return Link{Kind: LkMergeAddT}, true
	case OpMaddVS:
		ka, _ := cls(in.A)
		kc, _ := cls(in.C)
		if ka == clT && kc == clAcc {
			return Link{Kind: LkMergeMaddTS, A: in.B}, true
		}
	case OpMaddVV:
		ka, ia := cls(in.A)
		kb, ib := cls(in.B)
		kc, _ := cls(in.C)
		if kc != clAcc {
			return Link{}, false
		}
		ko, io := kb, ib
		if kb == clT {
			if ka == clT {
				return Link{}, false
			}
			ko, io = ka, ia
		} else if ka != clT {
			return Link{}, false
		}
		switch ko {
		case clF:
			return Link{Kind: LkMergeMaddTF, A: io}, true
		case clR:
			return Link{Kind: LkMergeMaddTR, A: io}, true
		}
	}
	return Link{}, false
}

// Segments extracts the kernel's own fused-segment partition.
func (k *Kernel) Segments() []Segment {
	return ExtractSegments(k.prog, k.drv.Slots, k.drv.Outs)
}
