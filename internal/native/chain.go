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
// addresses operand X, Y or Z when it lives in memory: a float32 field row
// at its first point on the run's first row — the executors add the row's
// offset in the run — or a float64 register or hoisted row at its first
// point; p[0] is the destination row of a torow or store, whose one
// operand is acc. s is the scalar operand's bits or, for a power, its
// exponent. h are the form's handlers for a block of 16 points and of 4
// (zero where there is no assembly). Addresses are patched per worker
// (register rows) and once per run of rows (field accesses, stores and
// hoisted rows), and corrected between rows only where a row moves by
// another pitch than the run's (see skew); scalars are resolved from the
// bound pool once per Run.
type xop struct {
	p [3]addr
	s uint64
	h [2]uintptr
}

// addr is an address in the op table, a word the garbage collector does
// not trace. Field rows are pointed on every run of rows of every sweep,
// and a pointer store made while a GC cycle is marking runs the write
// barrier; a plain word does not. That is safe because nothing in the op
// table is what keeps its memory alive: a field row lies in a buffer the
// driver's Resolved holds for the whole Run (and the row group beside it
// holds the same slice), a register row in the worker's regs, which its
// scratch holds for as long as the exec whose table points into it, a
// hoisted row in the kernel's rows, which Prime replaces only between
// Runs; and Go's heap does not move objects. None of them lies on a
// goroutine stack, which can move. A word need not lie inside its buffer:
// one whose rows are closer together than the run's pitch steps below it
// as its corrections accumulate. So an executor adds the row's and the
// block's offset to the word before it makes a pointer of it, and the
// pointer does.
type addr uintptr

// addrOf is p's address.
func addrOf(p unsafe.Pointer) addr { return addr(uintptr(p)) }

// ptr is the address as a pointer again; the address must lie inside its
// buffer. The word is reinterpreted, not converted: a uintptr-to-pointer
// conversion is what vet's unsafeptr check and the race detector's
// checkptr reject, since neither can see what keeps the memory alive
// (addr's comment says what does).
func (a addr) ptr() unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&a)) }
