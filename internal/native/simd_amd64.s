//go:build amd64

// AVX strip primitives (see simd_amd64.go for the contract). All loops
// assume n is a positive multiple of 4 (or zero) and advance raw pointers,
// so no indexed addressing or bounds state is needed. float32 operands are
// widened with VCVTPS2PD (exact), products and sums round with VMULPD /
// VADDPD (never FMA), and float32 stores narrow with VCVTPD2PS — each the
// same correctly-rounded IEEE operation the scalar engines perform.

#include "textflag.h"

DATA vone<>+0x00(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL vone<>(SB), RODATA, $8

// func vmovS(d unsafe.Pointer, s float64, n int)
TEXT ·vmovS(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	VBROADCASTSD s+8(FP), Y0
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   movsdone
movsloop:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  movsloop
movsdone:
	VZEROUPPER
	RET

// func vmulRS(d, a unsafe.Pointer, s float64, n int)
TEXT ·vmulRS(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mulrsdone
mulrsloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  mulrsloop
mulrsdone:
	VZEROUPPER
	RET

// func vmulRR(d, a, b unsafe.Pointer, n int)
TEXT ·vmulRR(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mulrrdone
mulrrloop:
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulrrloop
mulrrdone:
	VZEROUPPER
	RET

// func vmulFS(d, f unsafe.Pointer, s float64, n int)
TEXT ·vmulFS(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mulfsdone
mulfsloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMULPD     Y0, Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  mulfsloop
mulfsdone:
	VZEROUPPER
	RET

// func vmulFR(d, f, r unsafe.Pointer, n int)
TEXT ·vmulFR(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mulfrdone
mulfrloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMULPD     (DX), Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulfrloop
mulfrdone:
	VZEROUPPER
	RET

// func vmulFF(d, f, f2 unsafe.Pointer, n int)
TEXT ·vmulFF(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ f2+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mulffdone
mulffloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMOVUPS    (DX), X2
	VCVTPS2PD  X2, Y2
	VMULPD     Y2, Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulffloop
mulffdone:
	VZEROUPPER
	RET

// func vaddRS(d, a unsafe.Pointer, s float64, n int)
TEXT ·vaddRS(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   addrsdone
addrsloop:
	VMOVUPD (SI), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  addrsloop
addrsdone:
	VZEROUPPER
	RET

// func vaddRR(d, a, b unsafe.Pointer, n int)
TEXT ·vaddRR(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   addrrdone
addrrloop:
	VMOVUPD (SI), Y1
	VADDPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  addrrloop
addrrdone:
	VZEROUPPER
	RET

// func vaddFS(d, f unsafe.Pointer, s float64, n int)
TEXT ·vaddFS(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   addfsdone
addfsloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VADDPD     Y0, Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  addfsloop
addfsdone:
	VZEROUPPER
	RET

// func vaddFR(d, f, r unsafe.Pointer, n int)
TEXT ·vaddFR(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   addfrdone
addfrloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VADDPD     (DX), Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  addfrloop
addfrdone:
	VZEROUPPER
	RET

// func vaddFF(d, f, f2 unsafe.Pointer, n int)
TEXT ·vaddFF(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ f2+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   addffdone
addffloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMOVUPS    (DX), X2
	VCVTPS2PD  X2, Y2
	VADDPD     Y2, Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  addffloop
addffdone:
	VZEROUPPER
	RET

// func vtaps(d, z unsafe.Pointer, terms *term, k, base, n int)
//
// d = z + Σ terms[0..k), the sum held in registers across the taps: four
// accumulators over 16 points, then one over 4. Each tap is the
// instruction sequence of the links it stands for — VCVTPS2PD, VMULPD with
// the field value as first source, VADDPD with the product as first
// source — so rounding and NaN propagation are theirs. A term is 40
// bytes: f, g, s, s2, n (see chain.go).
TEXT ·vtaps(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ z+8(FP), R8
	MOVQ terms+16(FP), R9
	MOVQ k+24(FP), R10
	MOVQ base+32(FP), BX
	MOVQ n+40(FP), CX
	SHLQ $2, BX // the strip's byte offset in a field row
taps16:
	CMPQ CX, $16
	JLT  taps4
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	MOVQ R9, R11
	MOVQ R10, R12
term16:
	MOVQ 0(R11), SI
	ADDQ BX, SI
	VBROADCASTSD 16(R11), Y12
	CMPQ 32(R11), $0
	JNE  scale16
	VCVTPS2PD 0(SI), Y8
	VCVTPS2PD 16(SI), Y9
	VCVTPS2PD 32(SI), Y10
	VCVTPS2PD 48(SI), Y11
	VMULPD Y12, Y8, Y8
	VMULPD Y12, Y9, Y9
	VMULPD Y12, Y10, Y10
	VMULPD Y12, Y11, Y11
sum16:
	VADDPD Y0, Y8, Y0
	VADDPD Y1, Y9, Y1
	VADDPD Y2, Y10, Y2
	VADDPD Y3, Y11, Y3
	ADDQ $40, R11
	DECQ R12
	JNZ  term16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $64, BX
	SUBQ $16, CX
	JMP  taps16
scale16: // t = g·s [·s2], then f·t
	MOVQ 8(R11), DX
	ADDQ BX, DX
	VCVTPS2PD 0(DX), Y4
	VCVTPS2PD 16(DX), Y5
	VCVTPS2PD 32(DX), Y6
	VCVTPS2PD 48(DX), Y7
	VMULPD Y12, Y4, Y4
	VMULPD Y12, Y5, Y5
	VMULPD Y12, Y6, Y6
	VMULPD Y12, Y7, Y7
	CMPQ 32(R11), $1
	JEQ  fold16
	VBROADCASTSD 24(R11), Y12
	VMULPD Y12, Y4, Y4
	VMULPD Y12, Y5, Y5
	VMULPD Y12, Y6, Y6
	VMULPD Y12, Y7, Y7
fold16:
	VCVTPS2PD 0(SI), Y8
	VCVTPS2PD 16(SI), Y9
	VCVTPS2PD 32(SI), Y10
	VCVTPS2PD 48(SI), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y5, Y9, Y9
	VMULPD Y6, Y10, Y10
	VMULPD Y7, Y11, Y11
	JMP  sum16
taps4:
	TESTQ CX, CX
	JZ   tapsdone
	VMOVUPD (R8), Y0
	MOVQ R9, R11
	MOVQ R10, R12
term4:
	MOVQ 0(R11), SI
	VBROADCASTSD 16(R11), Y12
	CMPQ 32(R11), $0
	JNE  scale4
	VCVTPS2PD (SI)(BX*1), Y8
	VMULPD Y12, Y8, Y8
sum4:
	VADDPD Y0, Y8, Y0
	ADDQ $40, R11
	DECQ R12
	JNZ  term4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $16, BX
	SUBQ $4, CX
	JMP  taps4
scale4:
	MOVQ 8(R11), DX
	VCVTPS2PD (DX)(BX*1), Y4
	VMULPD Y12, Y4, Y4
	CMPQ 32(R11), $1
	JEQ  fold4
	VBROADCASTSD 24(R11), Y12
	VMULPD Y12, Y4, Y4
fold4:
	VCVTPS2PD (SI)(BX*1), Y8
	VMULPD Y4, Y8, Y8
	JMP  sum4
tapsdone:
	VZEROUPPER
	RET

// func vmaddFF(d, f, f2, c unsafe.Pointer, n int)
TEXT ·vmaddFF(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ f2+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	JZ   maddffdone
maddffloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMOVUPS    (DX), X2
	VCVTPS2PD  X2, Y2
	VMULPD     Y2, Y1, Y1
	VADDPD     (R8), Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  maddffloop
maddffdone:
	VZEROUPPER
	RET

// func vmaddFR(d, f, r, c unsafe.Pointer, n int)
TEXT ·vmaddFR(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	JZ   maddfrdone
maddfrloop:
	VMOVUPS    (SI), X1
	VCVTPS2PD  X1, Y1
	VMULPD     (DX), Y1, Y1
	VADDPD     (R8), Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  maddfrloop
maddfrdone:
	VZEROUPPER
	RET

// func vmaddRS(d, a unsafe.Pointer, s float64, c unsafe.Pointer, n int)
TEXT ·vmaddRS(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ c+24(FP), R8
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	JZ   maddrsdone
maddrsloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (R8), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  maddrsloop
maddrsdone:
	VZEROUPPER
	RET

// func vmaddRR(d, a, b, c unsafe.Pointer, n int)
TEXT ·vmaddRR(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	JZ   maddrrdone
maddrrloop:
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y1
	VADDPD  (R8), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  maddrrloop
maddrrdone:
	VZEROUPPER
	RET

// func vcvtStore(o, a unsafe.Pointer, n int)
TEXT ·vcvtStore(SB), NOSPLIT, $0-24
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   cvtstdone
cvtstloop:
	VMOVUPD    (SI), Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  cvtstloop
cvtstdone:
	VZEROUPPER
	RET

// func vsq(d, a unsafe.Pointer, n int)
TEXT ·vsq(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   sqdone
sqloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  sqloop
sqdone:
	VZEROUPPER
	RET

// func vrecip(d, a unsafe.Pointer, n int)
TEXT ·vrecip(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD vone<>(SB), Y0
	SHRQ $2, CX
	JZ   recipdone
reciploop:
	VMOVUPD (SI), Y1
	VDIVPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  reciploop
recipdone:
	VZEROUPPER
	RET

// func vrecipSq(d, a unsafe.Pointer, n int)
TEXT ·vrecipSq(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD vone<>(SB), Y0
	SHRQ $2, CX
	JZ   recipsqdone
recipsqloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y1, Y1
	VDIVPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  recipsqloop
recipsqdone:
	VZEROUPPER
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
