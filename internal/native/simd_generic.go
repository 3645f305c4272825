package native

import (
	"math"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// The pure-Go run executor: the definition of what every form computes,
// compiled on every GOARCH. On amd64 it runs the n&3 row remainder the
// assembly cannot take and is the reference simd_test.go holds every
// handler to; elsewhere it runs everything. It walks the run the way the
// assembly does — all links on one block of up to 16 points, then the next
// block — with acc and t as two local blocks instead of two register
// groups. Every multiply-add is written float64(x*y) + z: the explicit
// conversion pins the intermediate rounding (Go spec), forbidding the FMA
// contraction that would break bit-exactness with the other engines.

// Unsafe row views.
func dsl(p unsafe.Pointer, n int) []float64 { return unsafe.Slice((*float64)(p), n) }
func fsl(p unsafe.Pointer, n int) []float32 { return unsafe.Slice((*float32)(p), n) }

// goRun executes the run's links fs (ops parallel to them) over the points
// [lo, hi) of the row that starts start elements after the run's first row
// in every field operand and store (register and hoisted rows do not move
// with it). The offset is added to a table word before the word becomes a
// pointer: a word may lie outside its buffer when its operand's rows move
// by another pitch than the run's (see ExecRows), the pointer never does.
func goRun(fs []form, ops []xop, lo, hi, start int) {
	var acc, t, bx, by, bz [blockN]float64
	var base, m int
	var a, tt []float64 // acc and t over the current block
	// operand views one operand of a link over the current block: register
	// rows, acc and t in place, a field row widened and a scalar broadcast
	// into buf.
	operand := func(c bytecode.Class, o *xop, i int, buf []float64) []float64 {
		switch c {
		case bytecode.ClassF:
			for j, v := range fsl((o.p[i] + addr(4*(start+base))).ptr(), m) {
				buf[j] = float64(v)
			}
		case bytecode.ClassR:
			return dsl((o.p[i] + addr(8*base)).ptr(), m)
		case bytecode.ClassS:
			for j := range buf {
				buf[j] = math.Float64frombits(o.s)
			}
		case bytecode.ClassAcc:
			return a
		case bytecode.ClassT:
			return tt
		}
		return buf
	}
	for base = lo; base < hi; base += blockN {
		m = min(blockN, hi-base)
		a, tt = acc[:m], t[:m]
		for k := range fs {
			f, o := &fs[k], &ops[k]
			x, y, z := operand(f.x, o, 0, bx[:m]), operand(f.y, o, 1, by[:m]), operand(f.z, o, 2, bz[:m])
			d := a
			if f.dst == bytecode.ClassT {
				d = tt
			}
			// d may be x, y or z: element j is read before it is written.
			switch f.op {
			case bytecode.LinkMov:
				copy(d, x)
			case bytecode.LinkMul:
				for j := range d {
					d[j] = x[j] * y[j]
				}
			case bytecode.LinkAdd:
				for j := range d {
					d[j] = x[j] + y[j]
				}
			case bytecode.LinkMadd:
				for j := range d {
					d[j] = float64(x[j]*y[j]) + z[j]
				}
			case bytecode.LinkPow:
				for j := range d {
					d[j] = runtime.Ipow(x[j], int(int64(o.s)))
				}
			case bytecode.LinkToRow:
				copy(dsl((o.p[0]+addr(8*base)).ptr(), m), x)
			case bytecode.LinkStore:
				out := fsl((o.p[0] + addr(4*(start+base))).ptr(), m)
				for j, v := range x {
					out[j] = float32(v)
				}
			}
		}
	}
}
