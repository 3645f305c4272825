package native

import (
	"strconv"
	"unsafe"

	"devigo/internal/bytecode"
)

// blockN is the executors' unit of work: 16 points, which is four YMM
// registers of float64 for acc and four for t. A run executes every one of
// its links on a block before it touches the next block.
const blockN = 16

// form is what an executor needs to know of a link: the operation, where
// each operand lives and where the result lands. It is the link with its
// indices dropped — two links of one form run the same handler — plus, for
// a power, which of the specialized exponents it has.
type form struct {
	op      bytecode.LinkOp
	dst     bytecode.Class // ClassAcc or ClassT; ClassNone for torow, store and the end sentinel
	x, y, z bytecode.Class
	exp     int8 // LinkPow: 2, -1 or -2; 0 is any other exponent, read from the op
}

// opEnd is the operation of the sentinel that closes a run's op table: its
// handlers advance the block and re-enter the table, or return.
const opEnd = bytecode.LinkStore + 1

func formOf(l bytecode.Link) form {
	f := form{op: l.Op, dst: l.Dst, x: l.X.Class, y: l.Y.Class, z: l.Z.Class}
	switch {
	case l.Op >= bytecode.LinkToRow: // the terminators drain acc, whatever the link says
		f.dst, f.x = bytecode.ClassNone, bytecode.ClassAcc
	case l.Op == bytecode.LinkPow && (l.N == 2 || l.N == -1 || l.N == -2):
		f.exp = int8(l.N)
	}
	return f
}

// String is the link's form ("madd.fsa", "t.mul.fs", "store"); a power
// names its exponent too ("pow.a^-1", "pow.r^n").
func (f form) String() string {
	if f.op == opEnd {
		return "end"
	}
	s := bytecode.Link{Op: f.op, Dst: f.dst, X: bytecode.Operand{Class: f.x},
		Y: bytecode.Operand{Class: f.y}, Z: bytecode.Operand{Class: f.z}}.String()
	if f.op != bytecode.LinkPow {
		return s
	}
	if f.exp == 0 {
		return s + "^n"
	}
	return s + "^" + strconv.Itoa(int(f.exp))
}

// forms lists every form in handler-table order: the end sentinel, then
// the link shapes the extraction can emit (bytecode.LinkShapes, which
// derives them from the extraction's own rules), a power once per exponent
// kind. The assembly's handler table is generated from this list
// (asmgen_test.go), so a form the extraction learns to emit gets its
// handler by regenerating, and formIndex is the only form → handler map
// there is.
var forms, formIndex = func() ([]form, map[form]int32) {
	fs := []form{{op: opEnd}}
	for _, l := range bytecode.LinkShapes() {
		if l.Op != bytecode.LinkPow {
			fs = append(fs, formOf(l))
			continue
		}
		for _, e := range [...]int32{2, -1, -2, 3} {
			l.N = e
			fs = append(fs, formOf(l))
		}
	}
	idx := make(map[form]int32, len(fs))
	for i, f := range fs {
		idx[f] = int32(i)
	}
	return fs, idx
}()

// xop is one link in executable form, in the layout the assembly handlers
// read (48 bytes; asmgen_test.go takes the offsets from this type). p[i]
// addresses operand X, Y or Z at the row's first point when it lives in
// memory — a float32 field row or a float64 register row; p[0] is the
// destination row of a torow or store, whose one operand is acc. s is the
// scalar operand's bits or, for a power, its exponent. h are the form's
// handlers for a block of 16 points and of 4 (zero where there is no
// assembly). Pointers are patched per worker (register rows) and per row
// (field accesses); scalars are resolved from the bound pool once per Run.
type xop struct {
	p [3]unsafe.Pointer
	s uint64
	h [2]uintptr
}
