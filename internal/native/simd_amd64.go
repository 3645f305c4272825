//go:build amd64

// The AVX block executor. simd_amd64.s holds one handler per form and
// block width (generated: see asmgen_test.go), each of which does its
// link's arithmetic on one block — acc in Y0–Y3, t in Y4–Y7, in place in
// the destination's registers — and then jumps to the next op's handler;
// the end sentinel's handler advances the block and re-enters the table,
// first over 16-point blocks, then over 4-point ones. So a run is one call
// per row and one threaded dispatch per link per block; the row is named by
// its offset from the run's first row, so moving to the next row re-points
// nothing but the operands whose rows move by another pitch. Bit-exactness with
// the scalar engines holds because every vector instruction used —
// VCVTPS2PD, VMULPD, VADDPD, VDIVPD, VCVTPD2PS — performs the same
// correctly-rounded IEEE-754 operation as its scalar counterpart, and no
// FMA contraction is ever emitted: a madd is one VMULPD (rounding the
// product) followed by one VADDPD, exactly matching the VM's
// float64(a*b) + c.

package native

import "unsafe"

// runBlocks executes the op table at ops — a run's links and its end
// sentinel — over the first n points of the row that starts start
// elements after the run's first row in every field operand and store; n
// is a positive multiple of 4. Register and hoisted rows are read and
// written where the table points, whatever start is.
//
//go:noescape
func runBlocks(ops *xop, n, start int)

// handlerTable returns the first entry of the assembly's handler table:
// per form, in forms order, the addresses of its 16-point and 4-point
// handlers.
func handlerTable() *[2]uintptr

// cpuAVX probes CPUID and XGETBV for AVX with OS-enabled YMM state.
func cpuAVX() bool

// hasAVX says whether this host can run the assembly handlers. The
// platform sets it; tests clear it to run the pure-Go executor instead.
var hasAVX = cpuAVX()

// handlers returns form i's handler addresses.
func handlers(i int32) [2]uintptr {
	return unsafe.Slice(handlerTable(), len(forms))[i]
}

// runOps executes one run over a row of n points, start elements after the
// run's first row (see runBlocks): the assembly takes the n&^3 body and the
// pure-Go executor the remainder — or the whole row on a host without AVX.
func runOps(fs []form, ops []xop, n, start int) {
	nv := 0
	if hasAVX {
		if nv = n &^ 3; nv > 0 {
			runBlocks(&ops[0], nv, start)
		}
	}
	if nv < n {
		goRun(fs, ops, nv, n, start)
	}
}
