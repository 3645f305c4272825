package native

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"devigo/internal/runtime"
)

// The strip primitives must match the scalar reference semantics bit for
// bit on every lane — including NaN, infinities, negative zero and
// subnormals — on both the amd64 assembly and the generic Go builds. Odd
// lengths exercise the callers' multiple-of-4 contract at n=0.

func stripInputs(t *testing.T, n int) (a, b, c []float64, f, g []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	f = make([]float32, n)
	g = make([]float32, n)
	specials64 := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.2250738585072014e-308}
	specials32 := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45, -1.1754944e-38}
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		b[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64() * 1e3
		f[i] = float32(rng.NormFloat64())
		g[i] = float32(rng.NormFloat64() * 1e-3)
		if i%11 == 3 {
			a[i] = specials64[i%len(specials64)]
			f[i] = specials32[i%len(specials32)]
		}
	}
	return
}

func eqBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func checkStrip(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !eqBits(got[i], want[i]) {
			t.Fatalf("%s: lane %d: got %v (%#x), want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestStripPrimitivesMatchScalar(t *testing.T) {
	const n = 64
	a, b, c, f, g := stripInputs(t, n)
	s := 1.7182818284590452

	d := make([]float64, n)
	want := make([]float64, n)
	pd := unsafe.Pointer(&d[0])
	pa := unsafe.Pointer(&a[0])
	pb := unsafe.Pointer(&b[0])
	pc := unsafe.Pointer(&c[0])
	pf := unsafe.Pointer(&f[0])
	pg := unsafe.Pointer(&g[0])

	cases := []struct {
		name string
		run  func()
		ref  func(i int) float64
	}{
		{"vmovS", func() { vmovS(pd, s, n) }, func(i int) float64 { return s }},
		{"vmulRS", func() { vmulRS(pd, pa, s, n) }, func(i int) float64 { return a[i] * s }},
		{"vmulRR", func() { vmulRR(pd, pa, pb, n) }, func(i int) float64 { return a[i] * b[i] }},
		{"vmulFS", func() { vmulFS(pd, pf, s, n) }, func(i int) float64 { return float64(f[i]) * s }},
		{"vmulFR", func() { vmulFR(pd, pf, pa, n) }, func(i int) float64 { return float64(f[i]) * a[i] }},
		{"vmulFF", func() { vmulFF(pd, pf, pg, n) }, func(i int) float64 { return float64(f[i]) * float64(g[i]) }},
		{"vaddRS", func() { vaddRS(pd, pa, s, n) }, func(i int) float64 { return a[i] + s }},
		{"vaddRR", func() { vaddRR(pd, pa, pb, n) }, func(i int) float64 { return a[i] + b[i] }},
		{"vaddFS", func() { vaddFS(pd, pf, s, n) }, func(i int) float64 { return float64(f[i]) + s }},
		{"vaddFR", func() { vaddFR(pd, pf, pa, n) }, func(i int) float64 { return float64(f[i]) + a[i] }},
		{"vaddFF", func() { vaddFF(pd, pf, pg, n) }, func(i int) float64 { return float64(f[i]) + float64(g[i]) }},
		{"vmaddFS", func() { vmaddFS(pd, pf, s, pc, n) }, func(i int) float64 { return float64(float64(f[i])*s) + c[i] }},
		{"vmaddFF", func() { vmaddFF(pd, pf, pg, pc, n) }, func(i int) float64 { return float64(float64(f[i])*float64(g[i])) + c[i] }},
		{"vmaddFR", func() { vmaddFR(pd, pf, pa, pc, n) }, func(i int) float64 { return float64(float64(f[i])*a[i]) + c[i] }},
		{"vmaddRS", func() { vmaddRS(pd, pa, s, pc, n) }, func(i int) float64 { return float64(a[i]*s) + c[i] }},
		{"vmaddRR", func() { vmaddRR(pd, pa, pb, pc, n) }, func(i int) float64 { return float64(a[i]*b[i]) + c[i] }},
		{"vsq", func() { vsq(pd, pa, n) }, func(i int) float64 { return a[i] * a[i] }},
		{"vrecip", func() { vrecip(pd, pa, n) }, func(i int) float64 { return 1 / a[i] }},
		{"vrecipSq", func() { vrecipSq(pd, pa, n) }, func(i int) float64 { return 1 / (a[i] * a[i]) }},
	}
	for _, tc := range cases {
		for i := range d {
			d[i] = math.NaN()
		}
		tc.run()
		for i := 0; i < n; i++ {
			want[i] = tc.ref(i)
		}
		checkStrip(t, tc.name, d, want)
	}
}

// TestStripPrimitivesInPlace exercises dst aliasing a source operand — the
// accumulate forms the chain executor relies on (acc = f(acc, ...)).
func TestStripPrimitivesInPlace(t *testing.T) {
	const n = 32
	a, _, _, f, _ := stripInputs(t, n)
	s := -0.325

	d := make([]float64, n)
	want := make([]float64, n)
	pd := unsafe.Pointer(&d[0])
	pf := unsafe.Pointer(&f[0])

	reset := func() {
		copy(d, a)
		copy(want, a)
	}

	reset()
	vmaddFS(pd, pf, s, pd, n)
	for i := range want {
		want[i] = float64(float64(f[i])*s) + want[i]
	}
	checkStrip(t, "vmaddFS in-place", d, want)

	reset()
	vmulRS(pd, pd, s, n)
	for i := range want {
		want[i] *= s
	}
	checkStrip(t, "vmulRS in-place", d, want)

	reset()
	vaddFR(pd, pf, pd, n)
	for i := range want {
		want[i] = float64(f[i]) + want[i]
	}
	checkStrip(t, "vaddFR in-place", d, want)

	reset()
	vrecipSq(pd, pd, n)
	for i := range want {
		want[i] = 1 / (want[i] * want[i])
	}
	checkStrip(t, "vrecipSq in-place", d, want)
}

// TestStripCvtStore checks the float64->float32 narrowing store against
// Go's conversion, lane by lane.
func TestStripCvtStore(t *testing.T) {
	const n = 32
	a, _, _, _, _ := stripInputs(t, n)
	a[0] = 1e300  // overflows to +Inf in float32
	a[1] = -1e300 // -Inf
	a[2] = 1e-300 // underflows to 0
	out := make([]float32, n)
	vcvtStore(unsafe.Pointer(&out[0]), unsafe.Pointer(&a[0]), n)
	for i := range out {
		want := float32(a[i])
		if math.Float32bits(out[i]) != math.Float32bits(want) &&
			!(math.IsNaN(float64(out[i])) && math.IsNaN(float64(want))) {
			t.Fatalf("vcvtStore lane %d: got %v, want %v", i, out[i], want)
		}
	}
}

// TestPowSpecializations pins the AccPow fast paths to ipow's exact
// multiply-cascade results for every specialized exponent.
func TestPowSpecializations(t *testing.T) {
	vals := []float64{2.5, -3, 0.1, 0, math.Inf(1), math.NaN(), 5e-324, 1e200}
	for _, e := range []int{0, 1, 2, -1, -2, 3, -4} {
		for _, v := range vals {
			d := []float64{v, v, v, v}
			switch e {
			case 0:
				vmovS(unsafe.Pointer(&d[0]), 1, 4)
			case 1:
				// identity
			case 2:
				vsq(unsafe.Pointer(&d[0]), unsafe.Pointer(&d[0]), 4)
			case -1:
				vrecip(unsafe.Pointer(&d[0]), unsafe.Pointer(&d[0]), 4)
			case -2:
				vrecipSq(unsafe.Pointer(&d[0]), unsafe.Pointer(&d[0]), 4)
			default:
				powStrip(unsafe.Pointer(&d[0]), e, 4)
			}
			want := runtime.Ipow(v, e)
			for lane, got := range d {
				if !eqBits(got, want) {
					t.Fatalf("pow exp %d val %v lane %d: got %v, want %v", e, v, lane, got, want)
				}
			}
		}
	}
}
