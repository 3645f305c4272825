//go:build amd64

// AVX strip primitives. Each processes n points (n must be a multiple of
// 4; runChain routes the remainder through the pure-Go twins in goPrims).
// Bit-exactness with the scalar engines holds because every vector
// instruction used —
// VCVTPS2PD, VMULPD, VADDPD, VDIVPD, VCVTPD2PS — performs the same
// correctly-rounded IEEE-754 operation as its scalar counterpart, and no
// FMA contraction is ever emitted: a madd is one VMULPD (rounding the
// product) followed by one VADDPD, exactly matching the VM's
// float64(a*b) + c.
//
// Pointer conventions: d/a/b/c address float64 strips or register rows,
// f/g address float32 field rows. dst may alias any source (element i is
// read before it is written).

package native

import "unsafe"

//go:noescape
func vmovS(d unsafe.Pointer, s float64, n int)

//go:noescape
func vmulRS(d, a unsafe.Pointer, s float64, n int)

//go:noescape
func vmulRR(d, a, b unsafe.Pointer, n int)

//go:noescape
func vmulFS(d, f unsafe.Pointer, s float64, n int)

//go:noescape
func vmulFR(d, f, r unsafe.Pointer, n int)

//go:noescape
func vmulFF(d, f, f2 unsafe.Pointer, n int)

//go:noescape
func vaddRS(d, a unsafe.Pointer, s float64, n int)

//go:noescape
func vaddRR(d, a, b unsafe.Pointer, n int)

//go:noescape
func vaddFS(d, f unsafe.Pointer, s float64, n int)

//go:noescape
func vaddFR(d, f, r unsafe.Pointer, n int)

//go:noescape
func vaddFF(d, f, f2 unsafe.Pointer, n int)

//go:noescape
func vtaps(d, z unsafe.Pointer, terms *term, k, base, n int)

//go:noescape
func vmaddFF(d, f, f2, c unsafe.Pointer, n int)

//go:noescape
func vmaddFR(d, f, r, c unsafe.Pointer, n int)

//go:noescape
func vmaddRS(d, a unsafe.Pointer, s float64, c unsafe.Pointer, n int)

//go:noescape
func vmaddRR(d, a, b, c unsafe.Pointer, n int)

//go:noescape
func vcvtStore(o, a unsafe.Pointer, n int)

//go:noescape
func vsq(d, a unsafe.Pointer, n int)

//go:noescape
func vrecip(d, a unsafe.Pointer, n int)

//go:noescape
func vrecipSq(d, a unsafe.Pointer, n int)

// cpuAVX probes CPUID and XGETBV for AVX with OS-enabled YMM state.
func cpuAVX() bool

// hasAVX says whether this host can run the assembly primitives. The
// platform sets it; tests clear it to run the pure-Go executor instead.
var hasAVX = cpuAVX()

// runStrip applies every link of the chain to m points (a multiple of 4)
// starting at base: one assembly primitive per link, or the pure-Go
// executor on a host without AVX.
func runStrip(ls []xlink, base, m int) {
	if !hasAVX {
		runGo(ls, base, m)
		return
	}
	for li := range ls {
		l := &ls[li]
		d, x, y, z := l.at(0, base), l.at(1, base), l.at(2, base), l.at(3, base)
		switch l.prim {
		case pMovS:
			vmovS(d, l.sv, m)
		case pStore:
			vcvtStore(d, x, m)
		case pMulFS:
			vmulFS(d, x, l.sv, m)
		case pMulRS:
			vmulRS(d, x, l.sv, m)
		case pMulFF:
			vmulFF(d, x, y, m)
		case pMulFR:
			vmulFR(d, x, y, m)
		case pMulRR:
			vmulRR(d, x, y, m)
		case pAddFS:
			vaddFS(d, x, l.sv, m)
		case pAddRS:
			vaddRS(d, x, l.sv, m)
		case pAddFF:
			vaddFF(d, x, y, m)
		case pAddFR:
			vaddFR(d, x, y, m)
		case pAddRR:
			vaddRR(d, x, y, m)
		case pTaps:
			vtaps(d, z, &l.terms[0], len(l.terms), base, m)
		case pMaddRS:
			vmaddRS(d, x, l.sv, z, m)
		case pMaddFF:
			vmaddFF(d, x, y, z, m)
		case pMaddFR:
			vmaddFR(d, x, y, z, m)
		case pMaddRR:
			vmaddRR(d, x, y, z, m)
		case pSq:
			vsq(d, x, m)
		case pRecip:
			vrecip(d, x, m)
		case pRecipSq:
			vrecipSq(d, x, m)
		default: // pCopy, pPowF, pPowR have no assembly twin
			goPrims[l.prim](d, x, y, z, l.sv, l.exp, m)
		}
	}
}
