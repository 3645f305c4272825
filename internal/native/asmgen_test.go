package native

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"devigo/internal/bytecode"
)

// simd_amd64.s is generated: one handler per entry of forms and block
// width, emitted from the form's parts by the few rules below, so that the
// 128 handlers cannot drift apart by hand. The test fails when the
// checked-in file is not what the generator prints;
//
//	go test ./internal/native/ -run TestHandlersAreGenerated -args -update-asm
//
// rewrites it. The generator lives in a test file because it needs the
// package's own form list and op layout and nothing else needs it.
var updateASM = flag.Bool("update-asm", false, "rewrite simd_amd64.s from the generator")

const asmFile = "simd_amd64.s"

func TestHandlersAreGenerated(t *testing.T) {
	want := generateASM()
	if *updateASM {
		if err := os.WriteFile(asmFile, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(asmFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s is not the generator's output: regenerate it with -args -update-asm", asmFile)
	}
}

// Byte offsets of the op table the handlers walk.
var (
	offP  = int(unsafe.Offsetof(xop{}.p))
	offS  = int(unsafe.Offsetof(xop{}.s))
	offH  = int(unsafe.Offsetof(xop{}.h))
	opLen = int(unsafe.Sizeof(xop{}))
)

const asmHeader = `// Code generated by asmgen_test.go (go test -run TestHandlersAreGenerated -args -update-asm). DO NOT EDIT.

//go:build amd64

// The AVX run handlers (see simd_amd64.go for the contract). A run is
// threaded code: runBlocks enters the first op's handler, every handler
// ends by jumping to the next op's, and the end sentinel's handler advances
// the block and re-enters the table or returns on runBlocks' frame.
//
//	R10  the run's op table        R11  the current op
//	BX   the block's byte offset in a float32 field row, the row's own
//	     offset from the run's first row included
//	R12  the block's byte offset in a float32 row alone (twice that in a
//	     float64 register or hoisted row, which no row offset moves)
//	CX   points left in the row    AX   the next handler
//	SI DX R8  operands X Y Z       DI   a terminator's destination row
//	Y0-Y3   acc                    Y4-Y7   t
//	Y8-Y11  X, then the product    Y12-Y15 Y or Z when it is a field row; Y12 a scalar
//
// A 16-point handler works on all four registers of a group, a 4-point
// handler on the first. float32 operands are widened with VCVTPS2PD
// (exact), products and sums round with VMULPD / VADDPD (never FMA), and
// float32 stores narrow with VCVTPD2PS — each the same correctly-rounded
// IEEE operation the scalar engines perform. X is always the first source
// of its multiply or add, the product the first source of a madd's add
// (a field-row addend is the first source of that add instead), as in the
// scalar engines' x*y, x+y and p+z. Every handler starts on a 64-byte
// boundary, so the code a kernel runs is laid out the same whatever is
// linked before it.

#include "textflag.h"

DATA vone<>+0x00(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL vone<>(SB), RODATA, $8

// func runBlocks(ops *xop, n, start int)
TEXT ·runBlocks(SB), NOSPLIT, $0-24
	MOVQ ops+0(FP), R10
	MOVQ n+8(FP), CX
	MOVQ start+16(FP), BX
	SHLQ $2, BX
	XORQ R12, R12
	MOVQ R10, R11
	CMPQ CX, $16
	JLT  four
	MOVQ %[1]d(R11), AX
	JMP  AX
four:
	MOVQ %[2]d(R11), AX
	JMP  AX

// func handlerTable() *[2]uintptr
TEXT ·handlerTable(SB), NOSPLIT, $0-8
	LEAQ handlers<>(SB), AX
	MOVQ AX, ret+0(FP)
	RET

// func cpuAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// have the SSE and AVX state bits (1, 2) set: the OS saves the YMM halves.
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
noavx:
	RET
`

// asmGen accumulates the file; lanes is the number of YMM registers a
// group spans at the block width being emitted (4 or 1).
type asmGen struct {
	strings.Builder
	lanes int
}

func (g *asmGen) ins(format string, args ...any) {
	fmt.Fprintf(g, "\t"+format+"\n", args...)
}

type regs [4]string

var (
	accRegs = regs{"Y0", "Y1", "Y2", "Y3"}
	tRegs   = regs{"Y4", "Y5", "Y6", "Y7"}
	tmpA    = regs{"Y8", "Y9", "Y10", "Y11"}
	tmpB    = regs{"Y12", "Y13", "Y14", "Y15"}
)

func groupOf(c bytecode.Class) regs {
	if c == bytecode.ClassT {
		return tRegs
	}
	return accRegs
}

func handlerName(f form, width int) string {
	return fmt.Sprintf("h%d_%s", width, strings.NewReplacer(".", "_", "^-", "_inv", "^", "_to").Replace(f.String()))
}

// row points ptr at the block of operand pos — a field row (class F) at
// BX, the row's offset in the run included, or a register or hoisted row
// at 2·R12 — and returns the address of each of its lanes.
func (g *asmGen) row(pos int, c bytecode.Class, ptr string) regs {
	g.ins("MOVQ %d(R11), %s", offP+8*pos, ptr)
	stride := 32
	if c == bytecode.ClassF {
		g.ins("ADDQ BX, %s", ptr)
		stride = 16
	} else {
		g.ins("LEAQ (%s)(R12*2), %s", ptr, ptr)
	}
	var at regs
	for j := range at {
		at[j] = fmt.Sprintf("%d(%s)", stride*j, ptr)
	}
	return at
}

// load brings the memory operand pos into the registers into.
func (g *asmGen) load(pos int, c bytecode.Class, ptr string, into regs) {
	mov := "VMOVUPD"
	if c == bytecode.ClassF {
		mov = "VCVTPS2PD"
	}
	at := g.row(pos, c, ptr)
	for j := 0; j < g.lanes; j++ {
		g.ins("%s %s, %s", mov, at[j], into[j])
	}
}

// first returns operand X as registers (an instruction's first source
// cannot be memory): its group, or Y8-Y11 loaded from its row.
func (g *asmGen) first(c bytecode.Class) regs {
	if c == bytecode.ClassF || c == bytecode.ClassR {
		g.load(0, c, "SI", tmpA)
		return tmpA
	}
	return groupOf(c)
}

// second returns operand Y as second sources: its group, the scalar
// broadcast into Y12, a register row's addresses, or Y12-Y15 loaded from a
// field row.
func (g *asmGen) second(c bytecode.Class) regs {
	switch c {
	case bytecode.ClassS:
		g.ins("VBROADCASTSD %d(R11), Y12", offS)
		return regs{"Y12", "Y12", "Y12", "Y12"}
	case bytecode.ClassR:
		return g.row(1, c, "DX")
	case bytecode.ClassF:
		g.load(1, c, "DX", tmpB)
		return tmpB
	}
	return groupOf(c)
}

// each emits one three-operand instruction per lane: src2, src1, dst.
func (g *asmGen) each(op string, src2, src1, dst regs) {
	for j := 0; j < g.lanes; j++ {
		g.ins("%s %s, %s, %s", op, src2[j], src1[j], dst[j])
	}
}

// next dispatches the following op's handler for the same block width.
func (g *asmGen) next() {
	g.ins("ADDQ $%d, R11", opLen)
	g.ins("MOVQ %d(R11), AX", g.hOff())
	g.ins("JMP  AX")
}

func (g *asmGen) hOff() int {
	if g.lanes == 1 {
		return offH + 8
	}
	return offH
}

func (g *asmGen) handler(f form, width int) {
	g.lanes = width / 4
	fmt.Fprintf(g, "\n// %s, %d points\nTEXT %s<>(SB), NOSPLIT|NOFRAME, $0-0\n", f, width, handlerName(f, width))
	g.ins("PCALIGN $64")
	d := groupOf(f.dst)
	switch f.op {
	case opEnd:
		g.end(width)
		return
	case bytecode.LinkMov:
		if f.x != bytecode.ClassS {
			g.load(0, f.x, "SI", d)
			break
		}
		g.ins("VBROADCASTSD %d(R11), %s", offS, d[0])
		for j := 1; j < g.lanes; j++ {
			g.ins("VMOVAPD %s, %s", d[0], d[j])
		}
	case bytecode.LinkMul:
		x := g.first(f.x)
		g.each("VMULPD", g.second(f.y), x, d)
	case bytecode.LinkAdd:
		x := g.first(f.x)
		g.each("VADDPD", g.second(f.y), x, d)
	case bytecode.LinkMadd:
		x := g.first(f.x)
		g.each("VMULPD", g.second(f.y), x, tmpA)
		switch f.z {
		case bytecode.ClassF:
			g.load(2, f.z, "R8", tmpB)
			g.each("VADDPD", tmpA, tmpB, d)
		case bytecode.ClassR:
			g.each("VADDPD", g.row(2, f.z, "R8"), tmpA, d)
		default:
			g.each("VADDPD", groupOf(f.z), tmpA, d)
		}
	case bytecode.LinkPow:
		if f.x != bytecode.ClassAcc {
			g.load(0, f.x, "SI", d)
		}
		g.pow(f.exp, d)
	case bytecode.LinkToRow:
		at := g.row(0, bytecode.ClassR, "DI")
		for j := 0; j < g.lanes; j++ {
			g.ins("VMOVUPD %s, %s", accRegs[j], at[j])
		}
	case bytecode.LinkStore:
		at := g.row(0, bytecode.ClassF, "DI")
		for j := 0; j < g.lanes; j++ {
			g.ins("VCVTPD2PSY %s, X%d", accRegs[j], 8+j)
			g.ins("VMOVUPS X%d, %s", 8+j, at[j])
		}
	}
	g.next()
}

// pow raises d in place with Ipow's own rounding sequence: out = 1, out *=
// v per unit of |e|, 1/out for a negative e. The specialized exponents skip
// the exact first product 1*v.
func (g *asmGen) pow(exp int8, d regs) {
	one := regs{"Y12", "Y12", "Y12", "Y12"}
	switch exp {
	case 2:
		g.each("VMULPD", d, d, d)
	case -1, -2:
		if exp == -2 {
			g.each("VMULPD", d, d, d)
		}
		g.ins("VBROADCASTSD vone<>(SB), Y12")
		g.each("VDIVPD", d, one, d)
	default:
		g.ins("MOVQ %d(R11), R9", offS)
		g.ins("MOVQ R9, AX")
		g.ins("NEGQ AX")
		g.ins("CMOVQLT R9, AX // |e|")
		g.ins("VBROADCASTSD vone<>(SB), Y12")
		for j := 0; j < g.lanes; j++ {
			g.ins("VMOVAPD Y12, %s", tmpA[j])
		}
		g.ins("TESTQ AX, AX")
		g.ins("JZ   sign")
		g.WriteString("times:\n")
		g.each("VMULPD", d, tmpA, tmpA)
		g.ins("DECQ AX")
		g.ins("JNZ  times")
		g.WriteString("sign:\n")
		g.ins("TESTQ R9, R9")
		g.ins("JLT  invert")
		for j := 0; j < g.lanes; j++ {
			g.ins("VMOVAPD %s, %s", tmpA[j], d[j])
		}
		g.ins("JMP  done")
		g.WriteString("invert:\n")
		g.each("VDIVPD", tmpA, one, d)
		g.WriteString("done:\n")
	}
}

// end is the sentinel's handler: the block loop. After the last 16-point
// block it hands the row's last 4-point blocks to the 4-point handlers.
func (g *asmGen) end(width int) {
	g.ins("ADDQ $%d, BX", 4*width)
	g.ins("ADDQ $%d, R12", 4*width)
	g.ins("SUBQ $%d, CX", width)
	g.ins("MOVQ R10, R11")
	g.ins("CMPQ CX, $%d", width)
	g.ins("JLT  tail")
	g.ins("MOVQ %d(R11), AX", g.hOff())
	g.ins("JMP  AX")
	g.WriteString("tail:\n")
	if width == 16 {
		g.ins("CMPQ CX, $4")
		g.ins("JLT  done")
		g.ins("MOVQ %d(R11), AX", offH+8)
		g.ins("JMP  AX")
		g.WriteString("done:\n")
	}
	g.ins("VZEROUPPER")
	g.ins("RET")
}

func generateASM() string {
	g := &asmGen{}
	fmt.Fprintf(g, asmHeader, offH, offH+8)
	for _, width := range [...]int{16, 4} {
		for _, f := range forms {
			g.handler(f, width)
		}
	}
	g.WriteString("\n// Per form, in forms order: its 16-point and its 4-point handler.\n")
	for i, f := range forms {
		fmt.Fprintf(g, "DATA handlers<>+%d(SB)/8, $%s<>(SB)\n", 16*i, handlerName(f, 16))
		fmt.Fprintf(g, "DATA handlers<>+%d(SB)/8, $%s<>(SB)\n", 16*i+8, handlerName(f, 4))
	}
	fmt.Fprintf(g, "GLOBL handlers<>(SB), RODATA, $%d\n", 16*len(forms))
	return g.String()
}
