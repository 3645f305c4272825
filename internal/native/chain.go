package native

import (
	"fmt"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// stripN is the accumulator strip length: long enough to amortize one
// dispatch per link per strip to nothing, short enough that the acc and t
// strips (2 x 2 KB) and the field rows they touch stay resident in L1.
const stripN = 256

// Unsafe row accessors for the scalar tail. fx widens a float32 field
// element exactly like the VM's load opcode; rx reads a float64
// register-row element. Bounds were checked when the row pointer was
// patched (patchRow), so the inner loops carry no per-point checks.
func fx(p unsafe.Pointer, i int) float64 {
	return float64(*(*float32)(unsafe.Add(p, uintptr(i)*4)))
}
func rx(p unsafe.Pointer, i int) float64 {
	return *(*float64)(unsafe.Add(p, uintptr(i)*8))
}
func sf(p unsafe.Pointer, i int, v float64) {
	*(*float32)(unsafe.Add(p, uintptr(i)*4)) = float32(v)
}
func sr(p unsafe.Pointer, i int, v float64) {
	*(*float64)(unsafe.Add(p, uintptr(i)*8)) = v
}

// Pointer arithmetic into float32 field rows and float64 register rows.
func fp(p unsafe.Pointer, i int) unsafe.Pointer { return unsafe.Add(p, uintptr(i)*4) }
func rp(p unsafe.Pointer, i int) unsafe.Pointer { return unsafe.Add(p, uintptr(i)*8) }

// Unsafe strip views (shared by the generic primitives and ToRow).
func dsl(p unsafe.Pointer, n int) []float64 { return unsafe.Slice((*float64)(p), n) }
func fsl(p unsafe.Pointer, n int) []float32 { return unsafe.Slice((*float32)(p), n) }

// powStrip applies Ipow in place for exponents outside the specialized
// set. Scalar: general integer powers are rare and loop-carried anyway.
func powStrip(d unsafe.Pointer, e, n int) {
	dd := dsl(d, n)
	for i := range dd {
		dd[i] = runtime.Ipow(dd[i], e)
	}
}

// runChain executes one fused chain over a row of n points. Points are
// independent, so the row is processed in strips: the accumulator and
// scratch chains live in per-worker strip buffers and every link applies
// one bulk primitive per strip — on amd64 an AVX2 kernel, elsewhere a
// scalar loop. Multiply-adds round after the multiply and after the add at
// every point (the primitives never emit FMA), keeping the engine
// bit-exact with the VM. The n%4 remainder runs through the per-point
// scalar tail below.
func (ex *exec) runChain(ls []xlink, n int) {
	nv := n &^ 3
	if nv > 0 {
		ap := unsafe.Pointer(&ex.acc[0])
		tp := unsafe.Pointer(&ex.tt[0])
		for base := 0; base < nv; base += stripN {
			m := nv - base
			if m > stripN {
				m = stripN
			}
			ex.runStrip(ls, base, m, ap, tp)
		}
	}
	for i := nv; i < n; i++ {
		scalarPoint(ls, i)
	}
}

// runStrip applies every link of the chain to m points starting at base.
// ap/tp address the worker's accumulator and scratch strips.
func (ex *exec) runStrip(ls []xlink, base, m int, ap, tp unsafe.Pointer) {
	for li := range ls {
		l := &ls[li]
		switch l.kind {
		case bytecode.LkToRow:
			copy(dsl(rp(l.pa, base), m), ex.acc[:m])
		case bytecode.LkStore:
			vcvtStore(fp(l.pa, base), ap, m)
		case bytecode.LkMovS:
			vmovS(ap, l.sv, m)

		case bytecode.LkMulFS:
			vmulFS(ap, fp(l.pa, base), l.sv, m)
		case bytecode.LkMulRS:
			vmulRS(ap, rp(l.pa, base), l.sv, m)
		case bytecode.LkMulFF:
			vmulFF(ap, fp(l.pa, base), fp(l.pb, base), m)
		case bytecode.LkMulFR:
			vmulFR(ap, fp(l.pa, base), rp(l.pb, base), m)
		case bytecode.LkMulRR:
			vmulRR(ap, rp(l.pa, base), rp(l.pb, base), m)
		case bytecode.LkAddFS:
			vaddFS(ap, fp(l.pa, base), l.sv, m)
		case bytecode.LkAddRS:
			vaddRS(ap, rp(l.pa, base), l.sv, m)
		case bytecode.LkAddFF:
			vaddFF(ap, fp(l.pa, base), fp(l.pb, base), m)
		case bytecode.LkAddFR:
			vaddFR(ap, fp(l.pa, base), rp(l.pb, base), m)
		case bytecode.LkAddRR:
			vaddRR(ap, rp(l.pa, base), rp(l.pb, base), m)

		case bytecode.LkPowF:
			for i := 0; i < m; i++ {
				ex.acc[i] = runtime.Ipow(fx(l.pa, base+i), l.exp)
			}
		case bytecode.LkPowR:
			for i := 0; i < m; i++ {
				ex.acc[i] = runtime.Ipow(rx(l.pa, base+i), l.exp)
			}

		case bytecode.LkMaddFSR:
			vmaddFS(ap, fp(l.pa, base), l.sv, rp(l.pc, base), m)
		case bytecode.LkMaddRSR:
			vmaddRS(ap, rp(l.pa, base), l.sv, rp(l.pc, base), m)
		case bytecode.LkMaddFFR:
			vmaddFF(ap, fp(l.pa, base), fp(l.pb, base), rp(l.pc, base), m)
		case bytecode.LkMaddFRR:
			vmaddFR(ap, fp(l.pa, base), rp(l.pb, base), rp(l.pc, base), m)
		case bytecode.LkMaddRRR:
			vmaddRR(ap, rp(l.pa, base), rp(l.pb, base), rp(l.pc, base), m)
		case bytecode.LkMaddFSF:
			for i := 0; i < m; i++ {
				ex.acc[i] = float64(fx(l.pa, base+i)*l.sv) + fx(l.pc, base+i)
			}
		case bytecode.LkMaddRSF:
			for i := 0; i < m; i++ {
				ex.acc[i] = float64(rx(l.pa, base+i)*l.sv) + fx(l.pc, base+i)
			}
		case bytecode.LkMaddFFF:
			for i := 0; i < m; i++ {
				ex.acc[i] = float64(fx(l.pa, base+i)*fx(l.pb, base+i)) + fx(l.pc, base+i)
			}
		case bytecode.LkMaddFRF:
			for i := 0; i < m; i++ {
				ex.acc[i] = float64(fx(l.pa, base+i)*rx(l.pb, base+i)) + fx(l.pc, base+i)
			}
		case bytecode.LkMaddRRF:
			for i := 0; i < m; i++ {
				ex.acc[i] = float64(rx(l.pa, base+i)*rx(l.pb, base+i)) + fx(l.pc, base+i)
			}

		case bytecode.LkAccAddS:
			vaddRS(ap, ap, l.sv, m)
		case bytecode.LkAccMulS:
			vmulRS(ap, ap, l.sv, m)
		case bytecode.LkAccAddF:
			vaddFR(ap, fp(l.pa, base), ap, m)
		case bytecode.LkAccAddR:
			vaddRR(ap, ap, rp(l.pa, base), m)
		case bytecode.LkAccMulF:
			vmulFR(ap, fp(l.pa, base), ap, m)
		case bytecode.LkAccMulR:
			vmulRR(ap, ap, rp(l.pa, base), m)
		case bytecode.LkAccMaddFS:
			vmaddFS(ap, fp(l.pa, base), l.sv, ap, m)
		case bytecode.LkAccMaddRS:
			vmaddRS(ap, rp(l.pa, base), l.sv, ap, m)
		case bytecode.LkAccMaddFF:
			vmaddFF(ap, fp(l.pa, base), fp(l.pb, base), ap, m)
		case bytecode.LkAccMaddFR:
			vmaddFR(ap, fp(l.pa, base), rp(l.pb, base), ap, m)
		case bytecode.LkAccMaddRR:
			vmaddRR(ap, rp(l.pa, base), rp(l.pb, base), ap, m)

		case bytecode.LkAccPow:
			// ipow's multiply cascade starts at 1.0, so small exponents
			// reduce exactly: 1*v == v, hence v^2 == v*v, v^-1 == 1/v,
			// v^-2 == 1/(v*v), all with ipow's own rounding sequence.
			switch l.exp {
			case 0:
				vmovS(ap, 1, m)
			case 1:
				// identity
			case 2:
				vsq(ap, ap, m)
			case -1:
				vrecip(ap, ap, m)
			case -2:
				vrecipSq(ap, ap, m)
			default:
				powStrip(ap, l.exp, m)
			}

		case bytecode.LkTMulFS:
			vmulFS(tp, fp(l.pa, base), l.sv, m)
		case bytecode.LkTMulRS:
			vmulRS(tp, rp(l.pa, base), l.sv, m)
		case bytecode.LkTMulFF:
			vmulFF(tp, fp(l.pa, base), fp(l.pb, base), m)
		case bytecode.LkTMulFR:
			vmulFR(tp, fp(l.pa, base), rp(l.pb, base), m)
		case bytecode.LkTMulRR:
			vmulRR(tp, rp(l.pa, base), rp(l.pb, base), m)
		case bytecode.LkTMulS:
			vmulRS(tp, tp, l.sv, m)
		case bytecode.LkTMulF:
			vmulFR(tp, fp(l.pa, base), tp, m)
		case bytecode.LkTMulR:
			vmulRR(tp, tp, rp(l.pa, base), m)
		case bytecode.LkTMaddFS:
			vmaddFS(tp, fp(l.pa, base), l.sv, tp, m)
		case bytecode.LkTMaddRS:
			vmaddRS(tp, rp(l.pa, base), l.sv, tp, m)

		case bytecode.LkMergeMulT:
			vmulRR(ap, ap, tp, m)
		case bytecode.LkMergeAddT:
			vaddRR(ap, ap, tp, m)
		case bytecode.LkMergeMaddTS:
			vmaddRS(ap, tp, l.sv, ap, m)
		case bytecode.LkMergeMaddTF:
			// t*f == f*t bitwise (IEEE multiplication commutes in value).
			vmaddFR(ap, fp(l.pa, base), tp, ap, m)
		case bytecode.LkMergeMaddTR:
			vmaddRR(ap, tp, rp(l.pa, base), ap, m)

		default:
			panic(fmt.Sprintf("native: unhandled link kind %v", l.kind))
		}
	}
}

// scalarPoint executes the chain at a single point — the row tail the
// 4-wide strips cannot cover. Every multiply-add is written
// float64(x*y) + z: the explicit conversion pins the intermediate
// rounding (Go spec), forbidding FMA contraction that would break
// bit-exactness with the other engines.
func scalarPoint(ls []xlink, i int) {
	var a, t float64
	for li := range ls {
		l := &ls[li]
		switch l.kind {
		case bytecode.LkToRow:
			sr(l.pa, i, a)
		case bytecode.LkStore:
			sf(l.pa, i, a)
		case bytecode.LkMovS:
			a = l.sv
		case bytecode.LkMulFS:
			a = fx(l.pa, i) * l.sv
		case bytecode.LkMulRS:
			a = rx(l.pa, i) * l.sv
		case bytecode.LkMulFF:
			a = fx(l.pa, i) * fx(l.pb, i)
		case bytecode.LkMulFR:
			a = fx(l.pa, i) * rx(l.pb, i)
		case bytecode.LkMulRR:
			a = rx(l.pa, i) * rx(l.pb, i)
		case bytecode.LkAddFS:
			a = fx(l.pa, i) + l.sv
		case bytecode.LkAddRS:
			a = rx(l.pa, i) + l.sv
		case bytecode.LkAddFF:
			a = fx(l.pa, i) + fx(l.pb, i)
		case bytecode.LkAddFR:
			a = fx(l.pa, i) + rx(l.pb, i)
		case bytecode.LkAddRR:
			a = rx(l.pa, i) + rx(l.pb, i)
		case bytecode.LkPowF:
			a = runtime.Ipow(fx(l.pa, i), l.exp)
		case bytecode.LkPowR:
			a = runtime.Ipow(rx(l.pa, i), l.exp)
		case bytecode.LkMaddFSF:
			a = float64(fx(l.pa, i)*l.sv) + fx(l.pc, i)
		case bytecode.LkMaddFSR:
			a = float64(fx(l.pa, i)*l.sv) + rx(l.pc, i)
		case bytecode.LkMaddRSF:
			a = float64(rx(l.pa, i)*l.sv) + fx(l.pc, i)
		case bytecode.LkMaddRSR:
			a = float64(rx(l.pa, i)*l.sv) + rx(l.pc, i)
		case bytecode.LkMaddFFF:
			a = float64(fx(l.pa, i)*fx(l.pb, i)) + fx(l.pc, i)
		case bytecode.LkMaddFFR:
			a = float64(fx(l.pa, i)*fx(l.pb, i)) + rx(l.pc, i)
		case bytecode.LkMaddFRF:
			a = float64(fx(l.pa, i)*rx(l.pb, i)) + fx(l.pc, i)
		case bytecode.LkMaddFRR:
			a = float64(fx(l.pa, i)*rx(l.pb, i)) + rx(l.pc, i)
		case bytecode.LkMaddRRF:
			a = float64(rx(l.pa, i)*rx(l.pb, i)) + fx(l.pc, i)
		case bytecode.LkMaddRRR:
			a = float64(rx(l.pa, i)*rx(l.pb, i)) + rx(l.pc, i)
		case bytecode.LkAccAddS:
			a += l.sv
		case bytecode.LkAccMulS:
			a *= l.sv
		case bytecode.LkAccAddF:
			a += fx(l.pa, i)
		case bytecode.LkAccAddR:
			a += rx(l.pa, i)
		case bytecode.LkAccMulF:
			a *= fx(l.pa, i)
		case bytecode.LkAccMulR:
			a *= rx(l.pa, i)
		case bytecode.LkAccMaddFS:
			a = float64(fx(l.pa, i)*l.sv) + a
		case bytecode.LkAccMaddRS:
			a = float64(rx(l.pa, i)*l.sv) + a
		case bytecode.LkAccMaddFF:
			a = float64(fx(l.pa, i)*fx(l.pb, i)) + a
		case bytecode.LkAccMaddFR:
			a = float64(fx(l.pa, i)*rx(l.pb, i)) + a
		case bytecode.LkAccMaddRR:
			a = float64(rx(l.pa, i)*rx(l.pb, i)) + a
		case bytecode.LkAccPow:
			a = runtime.Ipow(a, l.exp)
		case bytecode.LkTMulFS:
			t = fx(l.pa, i) * l.sv
		case bytecode.LkTMulRS:
			t = rx(l.pa, i) * l.sv
		case bytecode.LkTMulFF:
			t = fx(l.pa, i) * fx(l.pb, i)
		case bytecode.LkTMulFR:
			t = fx(l.pa, i) * rx(l.pb, i)
		case bytecode.LkTMulRR:
			t = rx(l.pa, i) * rx(l.pb, i)
		case bytecode.LkTMulS:
			t *= l.sv
		case bytecode.LkTMulF:
			t *= fx(l.pa, i)
		case bytecode.LkTMulR:
			t *= rx(l.pa, i)
		case bytecode.LkTMaddFS:
			t = float64(fx(l.pa, i)*l.sv) + t
		case bytecode.LkTMaddRS:
			t = float64(rx(l.pa, i)*l.sv) + t
		case bytecode.LkMergeMulT:
			a *= t
		case bytecode.LkMergeAddT:
			a += t
		case bytecode.LkMergeMaddTS:
			a = float64(t*l.sv) + a
		case bytecode.LkMergeMaddTF:
			a = float64(t*fx(l.pa, i)) + a
		case bytecode.LkMergeMaddTR:
			a = float64(t*rx(l.pa, i)) + a
		}
	}
}
