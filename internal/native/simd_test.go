package native

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"unsafe"

	"devigo/internal/bytecode"
	"devigo/internal/runtime"
)

// The assembly strip primitives must match their pure-Go twins bit for bit
// on every lane — including NaN, infinities, negative zero, subnormals and
// float32 overflow — with the destination distinct from and aliasing each
// float64 source. Links are bound to test buffers through the kernel's own
// template (tmpl.add and its patch lists), so primitive selection and
// operand routing are under test too. On a GOARCH without assembly both
// sides are the Go twins and the comparison is trivially true; the
// conformance table holds those to the bytecode VM.

// -noavx makes the whole test binary see a host without AVX, so that an
// amd64 runner can take every test through the pure-Go executor (CI does,
// as a second pass). It is a flag of the test binary, not of the package.
var noAVX = flag.Bool("noavx", false, "run the native engine as on a host without AVX")

func TestMain(m *testing.M) {
	flag.Parse()
	if *noAVX {
		hasAVX = false
	}
	os.Exit(m.Run())
}

// stripBufs is the storage a test template is bound to.
type stripBufs struct {
	f32    [3][]float32 // load slots 0..2
	f64    [3][]float64 // register rows 0..2
	out    []float32    // equation output 0
	strips [2][]float64 // acc, t
	pool   []float64
}

func newStripBufs(n int) *stripBufs {
	rng := rand.New(rand.NewSource(42))
	specials64 := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300}
	specials32 := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45, -1.1754944e-38}
	b := &stripBufs{out: make([]float32, n), pool: []float64{1.7182818284590452, -0.37, 1e-160, 3e200}}
	for k := range b.f64 {
		b.f64[k] = make([]float64, n)
		b.f32[k] = make([]float32, n)
		for i := 0; i < n; i++ {
			b.f64[k][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			b.f32[k][i] = float32(rng.NormFloat64())
			if i%11 == 3+k {
				b.f64[k][i] = specials64[i%len(specials64)]
				b.f32[k][i] = specials32[i%len(specials32)]
			}
		}
	}
	// The strips start out as copies of rows 0 and 1, so a link reading
	// acc or t is the destination-aliases-source form of the same link
	// reading that row.
	b.strips = [2][]float64{append([]float64(nil), b.f64[0]...), append([]float64(nil), b.f64[1]...)}
	return b
}

// bind resolves a template's patch lists against the buffers, the way
// Prep and patchRow resolve them against a kernel's storage.
func (b *stripBufs) bind(tm *tmpl) []xlink {
	ls := append([]xlink(nil), tm.links...)
	for i := range ls {
		ls[i].terms = append([]term(nil), ls[i].terms...)
	}
	for _, p := range tm.fs {
		*ls[p.li].ptr(p) = unsafe.Pointer(&b.f32[p.idx][0])
	}
	for _, p := range tm.rs {
		ls[p.li].p[p.pos] = unsafe.Pointer(&b.f64[p.idx][0])
	}
	for _, p := range tm.es {
		ls[p.li].p[p.pos] = unsafe.Pointer(&b.out[0])
	}
	for _, p := range tm.strips {
		ls[p.li].p[p.pos] = unsafe.Pointer(&b.strips[p.idx][0])
	}
	for _, p := range tm.ss {
		*ls[p.li].scalar(p) = b.pool[p.idx]
	}
	return ls
}

// results gathers what a chain's terminators write (torow into row 2,
// store into the output), as bits. NaNs compare equal whatever their
// payload: which operand's payload survives an operation on two NaNs is
// the compiler's choice in the Go twins.
func (b *stripBufs) results() []uint64 {
	var bits []uint64
	for _, v := range b.f64[2] {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range b.out {
		bits = append(bits, math.Float64bits(float64(v)))
	}
	for i, w := range bits {
		if math.IsNaN(math.Float64frombits(w)) {
			bits[i] = math.Float64bits(math.NaN())
		}
	}
	return bits
}

// runBoth executes the links through exec (the strip executor or the whole
// chain executor) and through the pure-Go executor on identical fresh
// buffers and fails on the first differing bit.
func runBoth(t *testing.T, name string, links []bytecode.Link, n int, exec func(ls []xlink, n int)) *tmpl {
	t.Helper()
	tm := &tmpl{}
	tm.addChain(links)
	got, want := newStripBufs(n), newStripBufs(n)
	exec(got.bind(tm), n)
	runGo(want.bind(tm), 0, n)
	g, w := got.results(), want.results()
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: result word %d: got %#x, pure Go %#x", name, i, g[i], w[i])
		}
	}
	return tm
}

func TestStripPrimitivesMatchGoTwins(t *testing.T) {
	F := func(i int32) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassF, Index: i} }
	R := func(i int32) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassR, Index: i} }
	S := bytecode.Operand{Class: bytecode.ClassS}
	acc := bytecode.Operand{Class: bytecode.ClassAcc}

	links := []bytecode.Link{
		{Op: bytecode.LinkMov, X: S},
		{Op: bytecode.LinkStore, X: acc},
		{Op: bytecode.LinkToRow, X: acc, N: 2},
		{Op: bytecode.LinkPow, X: F(0), N: 3},
	}
	for _, e := range []int32{2, -1, -2, 3, -4} {
		links = append(links, bytecode.Link{Op: bytecode.LinkPow, X: R(0), N: e})
	}
	for _, op := range []bytecode.LinkOp{bytecode.LinkMul, bytecode.LinkAdd, bytecode.LinkMadd} {
		for _, xy := range [][2]bytecode.Operand{{F(0), S}, {R(0), S}, {F(0), F(1)}, {F(0), R(1)}, {R(0), R(1)}} {
			l := bytecode.Link{Op: op, X: xy[0], Y: xy[1]}
			if op == bytecode.LinkMadd {
				l.Z = R(2)
			}
			links = append(links, l)
		}
	}

	var seen [numPrims]bool
	strip := func(ls []xlink, n int) { runStrip(ls, 0, n) }
	for _, l := range links {
		l.Dst = bytecode.ClassAcc
		// The link as written, then with each register-row operand in turn
		// replaced by the destination strip.
		variants := []bytecode.Link{l}
		for k := 0; k < 3; k++ {
			v := l
			if o := [...]*bytecode.Operand{&v.X, &v.Y, &v.Z}[k]; o.Class == bytecode.ClassR {
				*o = acc
				variants = append(variants, v)
			}
		}
		for _, v := range variants {
			// Drain the accumulator where results() looks.
			chain := []bytecode.Link{v, {Op: bytecode.LinkToRow, X: acc, N: 2}, {Op: bytecode.LinkStore, X: acc}}
			tm := runBoth(t, v.String(), chain, 64, strip)
			seen[tm.links[0].prim] = true
		}
	}
	for p := prim(0); p < numPrims; p++ {
		if !seen[p] {
			t.Errorf("primitive %d is not compared against its pure-Go twin", p)
		}
	}
}

// TestRunChainBodyAndTail runs a chain using both strips over a row of
// several strips plus a remainder: strip-relative acc/t addressing, the
// per-point steps of field and register rows at base > 0, and the hand-over
// from the assembly body to the pure-Go tail.
func TestRunChainBodyAndTail(t *testing.T) {
	F := func(i int32) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassF, Index: i} }
	S := bytecode.Operand{Class: bytecode.ClassS}
	acc := bytecode.Operand{Class: bytecode.ClassAcc}
	tt := bytecode.Operand{Class: bytecode.ClassT}
	r1 := bytecode.Operand{Class: bytecode.ClassR, Index: 1}
	chain := []bytecode.Link{
		{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: F(0), Y: S},
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: F(1), Y: r1},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(2), Y: tt, Z: acc},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(1), Y: F(2), Z: F(0)}, // expands to mul + add
		{Op: bytecode.LinkPow, Dst: bytecode.ClassAcc, X: acc, N: -2},
		{Op: bytecode.LinkToRow, X: acc, N: 2},
		{Op: bytecode.LinkStore, X: acc},
	}
	for _, n := range []int{1, 3, 4, 7, stripN + 2, 2*stripN + 7} {
		tm := runBoth(t, "chain", chain, n, runChain)
		if len(tm.links) != len(chain)+1 {
			t.Fatalf("template has %d links, want %d (the field-addend madd expands to two)", len(tm.links), len(chain)+1)
		}
	}
}

// TestPowSpecializations pins the pow fast paths to Ipow's exact
// multiply-cascade results for every specialized exponent.
func TestPowSpecializations(t *testing.T) {
	vals := []float64{2.5, -3, 0.1, 0, math.Inf(1), math.NaN(), 5e-324, 1e200}
	for _, e := range []int{0, 1, 2, -1, -2, 3, -4} {
		for _, v := range vals {
			tm := &tmpl{}
			tm.add(bytecode.Link{Op: bytecode.LinkPow, Dst: bytecode.ClassAcc, X: bytecode.Operand{Class: bytecode.ClassAcc}, N: int32(e)})
			b := newStripBufs(4)
			for i := range b.strips[0] {
				b.strips[0][i] = v
			}
			runStrip(b.bind(tm), 0, 4)
			want := runtime.Ipow(v, e)
			for lane, got := range b.strips[0] {
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("pow exp %d val %v lane %d: got %v, want %v", e, v, lane, got, want)
				}
			}
		}
	}
}

// tapKinds are the three tap forms by the number of links they span: the
// plain madd.fsa, t.mul.fs ; madd.fta, and t.mul.fs ; t.mul.ts ; madd.fta.
// tapLinks writes tap i of a run in form kind, cycling through the load
// slots and pool scalars so neighbouring taps differ.
func tapLinks(kind, i int) []bytecode.Link {
	F := func(j int) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassF, Index: int32(j % 3)} }
	S := func(j int) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassS, Index: int32(j % 4)} }
	acc := bytecode.Operand{Class: bytecode.ClassAcc}
	tt := bytecode.Operand{Class: bytecode.ClassT}
	switch kind {
	case 1:
		return []bytecode.Link{{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: S(i), Z: acc}}
	case 2:
		return []bytecode.Link{
			{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: F(i + 1), Y: S(i)},
			{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: tt, Z: acc}}
	}
	return []bytecode.Link{
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: F(i + 1), Y: S(i)},
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: tt, Y: S(i + 1)},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: tt, Z: acc}}
}

// runUnfused executes the links one primitive each (a chain of one link
// has nothing to fuse: an F×S madd is a run of one) through the pure-Go
// executor: the definition of what a chain computes.
func runUnfused(links []bytecode.Link, n int) []uint64 {
	tm := &tmpl{}
	for i := range links {
		tm.addChain(links[i : i+1])
	}
	b := newStripBufs(n)
	runGo(b.bind(tm), 0, n)
	return b.results()
}

// checkChain holds a chain's fused template, run through the assembly and
// through the Go twins, to its unfused link sequence, bit for bit.
func checkChain(t *testing.T, name string, chain []bytecode.Link, n int) *tmpl {
	t.Helper()
	tm := runBoth(t, name, chain, n, runChain)
	got, want := newStripBufs(n), runUnfused(chain, n)
	runGo(got.bind(tm), 0, n)
	for i, g := range got.results() {
		if g != want[i] {
			t.Fatalf("%s n=%d: result word %d: fused %#x, link by link %#x", name, n, i, g, want[i])
		}
	}
	return tm
}

// TestTapRunsMatchTheirLinks: a run of k taps — every order of the three
// forms for k <= 2, seeded mixes and the three pure runs beyond — executes
// as one pTaps link and produces the bits of its links run one at a time,
// over widths that take the 16-point blocks, the 4-point blocks and the
// pure-Go tail, with the sum opened in acc (d aliases z) and in a register
// row (it does not). newStripBufs seeds NaN, infinities, signed zeros and
// subnormals into every row.
func TestTapRunsMatchTheirLinks(t *testing.T) {
	acc := bytecode.Operand{Class: bytecode.ClassAcc}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 7, 18, 20} {
		var orders [][]int
		if k <= 2 {
			for c := 0; c < int(math.Pow(3, float64(k))); c++ {
				orders = append(orders, []int{1 + c%3, 1 + c/3}[:k])
			}
		} else {
			for kind := 1; kind <= 3; kind++ {
				pure, mix := make([]int, k), make([]int, k)
				for i := range pure {
					pure[i], mix[i] = kind, 1+rng.Intn(3)
				}
				orders = append(orders, pure, mix)
			}
		}
		for _, order := range orders {
			for _, rowAddend := range []bool{false, true} {
				// mul.fs opens acc; with rowAddend the run's first tap is
				// rewritten to add onto register row 1 instead.
				chain := []bytecode.Link{{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc,
					X: bytecode.Operand{Class: bytecode.ClassF}, Y: bytecode.Operand{Class: bytecode.ClassS}}}
				for i, kind := range order {
					chain = append(chain, tapLinks(kind, i)...)
				}
				if rowAddend {
					if order[0] != 1 {
						continue // only a plain tap takes a row addend
					}
					chain[1].Z = bytecode.Operand{Class: bytecode.ClassR, Index: 1}
				}
				chain = append(chain, bytecode.Link{Op: bytecode.LinkToRow, X: acc, N: 2}, bytecode.Link{Op: bytecode.LinkStore, X: acc})
				name := fmt.Sprintf("taps %v row-addend=%v", order, rowAddend)
				for _, n := range []int{4, 12, 16, 20, 252, 256, 259} {
					tm := checkChain(t, name, chain, n)
					if len(tm.links) != 4 || tm.links[1].prim != pTaps || len(tm.links[1].terms) != k {
						t.Fatalf("%s: template is %d links, want mul, one run of %d taps, torow, store", name, len(tm.links), k)
					}
				}
			}
		}
	}
}

// TestTapNeedsDeadScratch: the executor never writes a fused compound
// tap's t, so a form whose t is read again must stay three links. The
// chain extraction cannot emit such a chain (it merges t only when its
// register is dead), hence the hand-written one.
func TestTapNeedsDeadScratch(t *testing.T) {
	acc := bytecode.Operand{Class: bytecode.ClassAcc}
	tt := bytecode.Operand{Class: bytecode.ClassT}
	// mov opens acc, a three-link tap follows, then next, then the drains.
	chainWith := func(next ...bytecode.Link) []bytecode.Link {
		chain := []bytecode.Link{{Op: bytecode.LinkMov, Dst: bytecode.ClassAcc, X: bytecode.Operand{Class: bytecode.ClassS}}}
		chain = append(chain, tapLinks(3, 0)...)
		chain = append(chain, next...)
		return append(chain, bytecode.Link{Op: bytecode.LinkToRow, X: acc, N: 2}, bytecode.Link{Op: bytecode.LinkStore, X: acc})
	}
	reread := chainWith(bytecode.Link{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc,
		X: bytecode.Operand{Class: bytecode.ClassF, Index: 2}, Y: tt, Z: acc})
	for _, n := range []int{20, 259} {
		tm := checkChain(t, "t read after its tap", reread, n)
		for _, l := range tm.links {
			if l.prim == pTaps {
				t.Fatalf("a compound form whose t is read again was fused: %d links for %d", len(tm.links), len(reread))
			}
		}
	}
	// The same form followed by a tap that reopens t is a tap.
	if tm := checkChain(t, "t reopened", chainWith(tapLinks(2, 1)...), 20); len(tm.links) != 4 {
		t.Fatalf("reopened t: template is %d links, want mov, one run, torow, store", len(tm.links))
	}
}
