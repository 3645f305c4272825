package native

import "unsafe"

// stripN is the accumulator strip length: long enough to amortize one
// dispatch per link per strip to nothing, short enough that the acc and t
// strips (2 x 2 KB) and the field rows they touch stay resident in L1.
const stripN = 256

// prim names one strip primitive. Every primitive exists twice: as a
// pure-Go loop (simd_generic.go, every GOARCH) and, on amd64, as an AVX
// routine (simd_amd64.s) — except the three at the end, which are pure Go
// everywhere. The mul, add and madd families each come in the five operand
// pairings FS RS FF FR RR (F = float32 field row, R = float64 row or strip,
// S = broadcast scalar), in that order; the F×S madd is pTaps, a tap run
// of one.
type prim uint8

const (
	pMovS  prim = iota // d = s
	pStore             // float32 d = x
	pMulFS             // d = x * (s | y)
	pMulRS
	pMulFF
	pMulFR
	pMulRR
	pAddFS // d = x + (s | y)
	pAddRS
	pAddFF
	pAddFR
	pAddRR
	pTaps   // d = z + Σ taps, in link order, z a float64 row or strip (see term)
	pMaddRS // d = f64(x * (s | y)) + z
	pMaddFF
	pMaddFR
	pMaddRR
	pSq      // d = x*x
	pRecip   // d = 1/x
	pRecipSq // d = 1/(x*x)
	pCopy    // d = x
	pPowF    // d = ipow(f32 x, e)
	pPowR    // d = ipow(x, e)
	numPrims
)

// xlink is one fused link in executable form: its primitive, and for the
// destination (p[0]) and the operands X, Y, Z (p[1..3]) a pointer to the
// row's first point plus the bytes it advances per point — 4 for a field
// row, 8 for a register row, 0 for the worker's accumulator and scratch
// strips, which every strip of the row reuses from their start. That makes
// acc and t ordinary float64 operands: no primitive knows them. Pointers
// are patched per worker (register rows, strips) and per row (field
// accesses); sv is the scalar operand, resolved from the bound pool once
// per Run. A pTaps link reads no X or Y: its taps are the term table.
type xlink struct {
	prim  prim
	step  [4]uint8
	exp   int
	sv    float64
	p     [4]unsafe.Pointer
	terms []term
}

// term is one tap of a pTaps run, in the layout vtaps reads. With f and g
// the float32 field rows p[0] and p[1], widened exactly, the tap adds to
// the running sum
//
//	n == 0: f64(f·s[0])              madd.fsa
//	n == 1: f64(f·(g·s[0]))          t.mul.fs ; madd.fta
//	n == 2: f64(f·((g·s[0])·s[1]))   t.mul.fs ; t.mul.ts ; madd.fta
//
// rounding after every multiply and after the add, as the links it
// replaces do. Field pointers address the row's first point: the run is
// handed the strip's base.
type term struct {
	p [2]unsafe.Pointer
	s [2]float64
	n int
}

// at returns operand i's pointer at point base of the row.
func (l *xlink) at(i, base int) unsafe.Pointer {
	return unsafe.Add(l.p[i], base*int(l.step[i]))
}

// runChain executes one fused chain over a row of n points. Points are
// independent, so the row is processed in strips: the accumulator and
// scratch chains live in per-worker strip buffers and every link applies
// one bulk primitive per strip. Multiply-adds round after the multiply and
// after the add at every point (no primitive emits FMA), keeping the
// engine bit-exact with the VM. The assembly primitives take multiples of
// four points; the n&3 remainder runs the same links through their pure-Go
// twins.
func runChain(ls []xlink, n int) {
	nv := n &^ 3
	for base := 0; base < nv; base += stripN {
		runStrip(ls, base, min(stripN, nv-base))
	}
	if nv < n {
		runGo(ls, nv, n-nv)
	}
}

// runGo applies every link of the chain to m points starting at base
// through the pure-Go primitives.
func runGo(ls []xlink, base, m int) {
	for li := range ls {
		l := &ls[li]
		if l.prim == pTaps {
			goTaps(l.at(0, base), l.at(3, base), l.terms, base, m)
			continue
		}
		goPrims[l.prim](l.at(0, base), l.at(1, base), l.at(2, base), l.at(3, base), l.sv, l.exp, m)
	}
}
