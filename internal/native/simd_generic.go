package native

import (
	"unsafe"

	"devigo/internal/runtime"
)

// The pure-Go strip primitives: the definition of what each prim computes,
// compiled on every GOARCH. On amd64 they run the n&3 row remainder the
// assembly cannot take and are the reference simd_test.go holds the
// assembly to; elsewhere they run everything. d is the destination, x/y/z
// the operands (float32 rows where the prim's name says F, float64 rows or
// strips otherwise), s the scalar operand, e the integer exponent. dst may
// alias any source: element i is read before it is written. Every
// multiply-add is written float64(x*y) + z: the explicit conversion pins
// the intermediate rounding (Go spec), forbidding the FMA contraction that
// would break bit-exactness with the other engines.

// Unsafe strip views.
func dsl(p unsafe.Pointer, n int) []float64 { return unsafe.Slice((*float64)(p), n) }
func fsl(p unsafe.Pointer, n int) []float32 { return unsafe.Slice((*float32)(p), n) }

type goPrim func(d, x, y, z unsafe.Pointer, s float64, e, n int)

var goPrims = [numPrims]goPrim{
	pMovS: func(d, _, _, _ unsafe.Pointer, s float64, _, n int) {
		dd := dsl(d, n)
		for i := range dd {
			dd[i] = s
		}
	},
	pStore: func(d, x, _, _ unsafe.Pointer, _ float64, _, n int) {
		oo, aa := fsl(d, n), dsl(x, n)
		for i := range oo {
			oo[i] = float32(aa[i])
		}
	},
	pMulFS: func(d, x, _, _ unsafe.Pointer, s float64, _, n int) {
		dd, ff := dsl(d, n), fsl(x, n)
		for i := range dd {
			dd[i] = float64(ff[i]) * s
		}
	},
	pMulRS: func(d, x, _, _ unsafe.Pointer, s float64, _, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = aa[i] * s
		}
	},
	pMulFF: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, ff, gg := dsl(d, n), fsl(x, n), fsl(y, n)
		for i := range dd {
			dd[i] = float64(ff[i]) * float64(gg[i])
		}
	},
	pMulFR: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, ff, rr := dsl(d, n), fsl(x, n), dsl(y, n)
		for i := range dd {
			dd[i] = float64(ff[i]) * rr[i]
		}
	},
	pMulRR: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, aa, bb := dsl(d, n), dsl(x, n), dsl(y, n)
		for i := range dd {
			dd[i] = aa[i] * bb[i]
		}
	},
	pAddFS: func(d, x, _, _ unsafe.Pointer, s float64, _, n int) {
		dd, ff := dsl(d, n), fsl(x, n)
		for i := range dd {
			dd[i] = float64(ff[i]) + s
		}
	},
	pAddRS: func(d, x, _, _ unsafe.Pointer, s float64, _, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = aa[i] + s
		}
	},
	pAddFF: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, ff, gg := dsl(d, n), fsl(x, n), fsl(y, n)
		for i := range dd {
			dd[i] = float64(ff[i]) + float64(gg[i])
		}
	},
	pAddFR: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, ff, rr := dsl(d, n), fsl(x, n), dsl(y, n)
		for i := range dd {
			dd[i] = float64(ff[i]) + rr[i]
		}
	},
	pAddRR: func(d, x, y, _ unsafe.Pointer, _ float64, _, n int) {
		dd, aa, bb := dsl(d, n), dsl(x, n), dsl(y, n)
		for i := range dd {
			dd[i] = aa[i] + bb[i]
		}
	},
	pTaps: nil, // takes a term table, not operands: goTaps
	pMaddRS: func(d, x, _, z unsafe.Pointer, s float64, _, n int) {
		dd, aa, cc := dsl(d, n), dsl(x, n), dsl(z, n)
		for i := range dd {
			dd[i] = float64(aa[i]*s) + cc[i]
		}
	},
	pMaddFF: func(d, x, y, z unsafe.Pointer, _ float64, _, n int) {
		dd, ff, gg, cc := dsl(d, n), fsl(x, n), fsl(y, n), dsl(z, n)
		for i := range dd {
			dd[i] = float64(float64(ff[i])*float64(gg[i])) + cc[i]
		}
	},
	pMaddFR: func(d, x, y, z unsafe.Pointer, _ float64, _, n int) {
		dd, ff, rr, cc := dsl(d, n), fsl(x, n), dsl(y, n), dsl(z, n)
		for i := range dd {
			dd[i] = float64(float64(ff[i])*rr[i]) + cc[i]
		}
	},
	pMaddRR: func(d, x, y, z unsafe.Pointer, _ float64, _, n int) {
		dd, aa, bb, cc := dsl(d, n), dsl(x, n), dsl(y, n), dsl(z, n)
		for i := range dd {
			dd[i] = float64(aa[i]*bb[i]) + cc[i]
		}
	},
	// The three pow specializations reproduce Ipow exactly: its multiply
	// cascade starts at 1.0 and 1*v == v, hence v^2 == v*v, v^-1 == 1/v
	// and v^-2 == 1/(v*v), all with Ipow's own rounding sequence.
	pSq: func(d, x, _, _ unsafe.Pointer, _ float64, _, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = aa[i] * aa[i]
		}
	},
	pRecip: func(d, x, _, _ unsafe.Pointer, _ float64, _, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = 1 / aa[i]
		}
	},
	pRecipSq: func(d, x, _, _ unsafe.Pointer, _ float64, _, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = 1 / (aa[i] * aa[i])
		}
	},
	pCopy: func(d, x, _, _ unsafe.Pointer, _ float64, _, n int) {
		copy(dsl(d, n), dsl(x, n))
	},
	// General integer powers are rare and loop-carried, so they stay scalar
	// on every GOARCH.
	pPowF: func(d, x, _, _ unsafe.Pointer, _ float64, e, n int) {
		dd, ff := dsl(d, n), fsl(x, n)
		for i := range dd {
			dd[i] = runtime.Ipow(float64(ff[i]), e)
		}
	},
	pPowR: func(d, x, _, _ unsafe.Pointer, _ float64, e, n int) {
		dd, aa := dsl(d, n), dsl(x, n)
		for i := range dd {
			dd[i] = runtime.Ipow(aa[i], e)
		}
	},
}

// goTaps is pTaps in pure Go: d[i] = z[i] + Σ taps, the sum carried in
// link order through one local per point. ts' field pointers address the
// row's first point and d, z the strip's, which starts base points in.
func goTaps(d, z unsafe.Pointer, ts []term, base, n int) {
	dd, zz := dsl(d, n), dsl(z, n)
	for i := range dd {
		acc := zz[i]
		at := uintptr(base+i) * 4
		for k := range ts {
			t := &ts[k]
			v := t.s[0]
			if t.n > 0 {
				v = float64(*(*float32)(unsafe.Add(t.p[1], at))) * v
			}
			if t.n > 1 {
				v = v * t.s[1]
			}
			acc = float64(float64(*(*float32)(unsafe.Add(t.p[0], at)))*v) + acc
		}
		dd[i] = acc
	}
}
