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

// The assembly run handlers must match the pure-Go executor bit for bit on
// every lane — including NaN, infinities, negative zero, subnormals and
// float32 overflow — and both must match the links executed one at a time,
// each over the whole row. Links are bound to test buffers through the
// kernel's own template (tmpl.add and its patch lists), so handler
// selection and operand routing are under test too. On a GOARCH without
// assembly runOps is the Go executor and the first comparison is trivially
// true; the second and the conformance table still hold it to a definition
// and to the bytecode VM.

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

// Operand shorthands for hand-written links.
var (
	opAcc = bytecode.Operand{Class: bytecode.ClassAcc}
	opT   = bytecode.Operand{Class: bytecode.ClassT}
)

func opF(i int) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassF, Index: int32(i)} }
func opR(i int) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassR, Index: int32(i)} }
func opS(i int) bytecode.Operand { return bytecode.Operand{Class: bytecode.ClassS, Index: int32(i)} }

// drainRow is the register row the test chains drain into; poolOne the
// pool entry holding 1.0.
const (
	drainRow = 3
	poolOne  = 4
)

// rowBufs is the storage a test template is bound to.
type rowBufs struct {
	f32  [3][]float32 // load slots 0..2
	f64  [4][]float64 // register rows 0..3
	out  []float32    // equation output 0
	pool []float64
}

func newRowBufs(n int) *rowBufs {
	rng := rand.New(rand.NewSource(42))
	specials64 := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300}
	specials32 := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45, -1.1754944e-38}
	b := &rowBufs{out: make([]float32, n), pool: []float64{1.7182818284590452, -0.37, 1e-160, 3e200, 1}}
	for k := range b.f64 {
		b.f64[k] = make([]float64, n)
		for i := range b.f64[k] {
			b.f64[k][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			if i%11 == 3+k {
				b.f64[k][i] = specials64[i%len(specials64)]
			}
		}
	}
	for k := range b.f32 {
		b.f32[k] = make([]float32, n)
		for i := range b.f32[k] {
			b.f32[k][i] = float32(rng.NormFloat64())
			if i%11 == 3+k {
				b.f32[k][i] = specials32[i%len(specials32)]
			}
		}
	}
	return b
}

// bind resolves a template's patch lists against the buffers, the way
// Prep and patchRows resolve them against a kernel's storage.
func (b *rowBufs) bind(tm *tmpl) []xop {
	ops := append([]xop(nil), tm.ops...)
	for _, p := range tm.fs {
		ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&b.f32[p.idx][0]))
	}
	for _, p := range tm.rs {
		ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&b.f64[p.idx][0]))
	}
	for _, p := range tm.es {
		ops[p.li].p[p.pos] = addrOf(unsafe.Pointer(&b.out[0]))
	}
	for _, p := range tm.ss {
		ops[p.li].s = math.Float64bits(b.pool[p.idx])
	}
	return ops
}

// results gathers what a chain's terminators write (torow into the drain
// row, store into the output), as bits. NaNs compare equal whatever their
// payload: which operand's payload survives an operation on two NaNs is
// the compiler's choice in the Go executor.
func (b *rowBufs) results() []uint64 {
	var bits []uint64
	for _, v := range b.f64[drainRow] {
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

// runTemplate makes one run of the links: the template the kernel would
// build for a single chain segment.
func runTemplate(links []bytecode.Link) *tmpl {
	return buildTemplate([]bytecode.Segment{{Links: links}}, nil, nil, partAll)
}

// linkByLink is the definition the executors are held to: every link in
// turn over the whole row, one point at a time, acc and t two rows.
func linkByLink(fs []form, ops []xop, n int) {
	acc, t := make([]float64, n), make([]float64, n)
	for k, f := range fs {
		o := &ops[k]
		for i := 0; i < n; i++ {
			val := func(c bytecode.Class, pos int) float64 {
				switch c {
				case bytecode.ClassF:
					return float64(fsl(o.p[pos].ptr(), n)[i])
				case bytecode.ClassR:
					return dsl(o.p[pos].ptr(), n)[i]
				case bytecode.ClassS:
					return math.Float64frombits(o.s)
				case bytecode.ClassAcc:
					return acc[i]
				case bytecode.ClassT:
					return t[i]
				}
				return 0
			}
			x, y, z := val(f.x, 0), val(f.y, 1), val(f.z, 2)
			var v float64
			switch f.op {
			case bytecode.LinkMov:
				v = x
			case bytecode.LinkMul:
				v = x * y
			case bytecode.LinkAdd:
				v = x + y
			case bytecode.LinkMadd:
				v = float64(x*y) + z
			case bytecode.LinkPow:
				v = runtime.Ipow(x, int(int64(o.s)))
			case bytecode.LinkToRow:
				dsl(o.p[0].ptr(), n)[i] = x
				continue
			case bytecode.LinkStore:
				fsl(o.p[0].ptr(), n)[i] = float32(x)
				continue
			}
			if f.dst == bytecode.ClassT {
				t[i] = v
			} else {
				acc[i] = v
			}
		}
	}
}

// checkRun executes the links as one run over a row of n points through
// runOps (the assembly and its Go tail), through the Go executor alone and
// link by link, on identical fresh buffers, and fails on the first
// differing bit.
func checkRun(t *testing.T, name string, links []bytecode.Link, n int) *tmpl {
	t.Helper()
	tm := runTemplate(links)
	fs := tm.forms[:len(tm.forms)-1]
	asm, twin, def := newRowBufs(n), newRowBufs(n), newRowBufs(n)
	runOps(fs, asm.bind(tm), n, 0)
	goRun(fs, twin.bind(tm), 0, n, 0)
	linkByLink(fs, def.bind(tm), n)
	a, g, d := asm.results(), twin.results(), def.results()
	for i := range d {
		if a[i] != g[i] {
			t.Fatalf("%s n=%d: result word %d: run %#x, pure Go %#x", name, n, i, a[i], g[i])
		}
		if g[i] != d[i] {
			t.Fatalf("%s n=%d: result word %d: pure Go %#x, link by link %#x", name, n, i, g[i], d[i])
		}
	}
	return tm
}

// rowWidths are the row widths the run tests sweep: every remainder of the
// 16-point and 4-point blocks on short rows, and the widths around the
// benchmark workloads' rows.
func rowWidths() []int {
	ns := []int{255, 256, 257, 272, 2064}
	for n := 1; n <= 35; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestHandlersMatchGoTwin runs every handler — every entry of forms, at
// both block widths — against the Go executor. A handler reads acc and t
// from registers, so each is run inside a minimal run that first loads acc
// and t from rows 0 and 1 (times 1.0: exact) and afterwards drains acc, or
// t through acc, into the drain row and the output. Each register-row
// operand is also pointed, in turn, at the drain row, which a later link of
// the same block overwrites.
func TestHandlersMatchGoTwin(t *testing.T) {
	one := opS(poolOne)
	torow := bytecode.Link{Op: bytecode.LinkToRow, X: opAcc, N: drainRow}
	store := bytecode.Link{Op: bytecode.LinkStore, X: opAcc}
	seen := map[form]bool{}
	for _, f := range forms[1:] {
		l := bytecode.Link{Op: f.op, Dst: f.dst, N: int32(f.exp)}
		switch f.op {
		case bytecode.LinkToRow:
			l = torow
		case bytecode.LinkStore:
			l = store
		}
		for pos, c := range [...]bytecode.Class{f.x, f.y, f.z} {
			o := [...]*bytecode.Operand{&l.X, &l.Y, &l.Z}[pos]
			*o = bytecode.Operand{Class: c, Index: int32(pos)} // slot, row or pool entry pos
		}
		if formOf(l) != f {
			t.Fatalf("form %s: rebuilt link %s has form %s", f, l, formOf(l))
		}
		variants := []bytecode.Link{l}
		if f.op == bytecode.LinkPow && f.exp == 0 { // the general loop: a few more exponents
			for _, e := range []int32{1, 3, -3} {
				l.N = e
				variants = append(variants, l)
			}
		}
		for pos := 0; pos < 3; pos++ {
			v := l
			if o := [...]*bytecode.Operand{&v.X, &v.Y, &v.Z}[pos]; o.Class == bytecode.ClassR {
				o.Index = drainRow
				variants = append(variants, v)
			}
		}
		for _, v := range variants {
			run := []bytecode.Link{
				{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opR(0), Y: one},
				{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: opR(1), Y: one},
				v,
			}
			if f.dst == bytecode.ClassT {
				run = append(run,
					bytecode.Link{Op: bytecode.LinkMov, Dst: bytecode.ClassAcc, X: one},
					bytecode.Link{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opAcc, Y: opT})
			}
			run = append(run, torow, store)
			for _, n := range []int{4, 16, 16 + 4 + 3, 2*16 + 3*4 + 1} {
				tm := checkRun(t, f.String(), run, n)
				if tm.forms[2] != f {
					t.Fatalf("form %s: the template bound %s", f, tm.forms[2])
				}
				if hasAVX && (tm.ops[2].h[0] == 0 || tm.ops[2].h[1] == 0) {
					t.Fatalf("form %s has no assembly handler", f)
				}
			}
		}
		seen[f] = true
	}
	for _, l := range bytecode.LinkShapes() {
		if !seen[formOf(l)] {
			t.Errorf("link form %s has no handler in forms", l)
		}
	}
}

// tapLinks writes tap i of a stencil sum in one of the three forms taps
// take, by the number of links they span — the plain madd.fsa, t.mul.fs ;
// madd.fta, and t.mul.fs ; t.mul.ts ; madd.fta — cycling through the load
// slots and pool scalars so neighbouring taps differ.
func tapLinks(kind, i int) []bytecode.Link {
	F := func(j int) bytecode.Operand { return opF(j % 3) }
	S := func(j int) bytecode.Operand { return opS(j % 4) }
	switch kind {
	case 1:
		return []bytecode.Link{{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: S(i), Z: opAcc}}
	case 2:
		return []bytecode.Link{
			{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: F(i + 1), Y: S(i)},
			{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: opT, Z: opAcc}}
	}
	return []bytecode.Link{
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: F(i + 1), Y: S(i)},
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: opT, Y: S(i + 1)},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: F(i), Y: opT, Z: opAcc}}
}

// TestRunMatchesItsLinks: a multi-link run produces the bits of its links
// executed one at a time, over every row width of rowWidths. The runs are a
// chain that uses both accumulators, a field-row addend, a reciprocal
// square and a scratch value read again after the tap that built it (t is
// a register group, not a dead temporary), and stencil sums of k taps —
// every order of the three tap forms for k <= 2, seeded mixes and the three
// pure sums beyond — opened in acc and, where the first tap is plain, on a
// register row. newRowBufs seeds NaN, infinities, signed zeros and
// subnormals into every row.
func TestRunMatchesItsLinks(t *testing.T) {
	torow := bytecode.Link{Op: bytecode.LinkToRow, X: opAcc, N: drainRow}
	store := bytecode.Link{Op: bytecode.LinkStore, X: opAcc}
	chain := []bytecode.Link{
		{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opF(0), Y: opS(0)},
		{Op: bytecode.LinkMul, Dst: bytecode.ClassT, X: opF(1), Y: opR(1)},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: opF(2), Y: opT, Z: opAcc},
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: opF(0), Y: opT, Z: opAcc}, // t read again
		{Op: bytecode.LinkMadd, Dst: bytecode.ClassAcc, X: opF(1), Y: opF(2), Z: opF(0)},
		{Op: bytecode.LinkPow, Dst: bytecode.ClassAcc, X: opAcc, N: -2},
		torow, store,
	}
	for _, n := range rowWidths() {
		checkRun(t, "chain", chain, n)
	}

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
				// mul.fs opens acc; with rowAddend the first tap is
				// rewritten to add onto register row 1 instead.
				sum := []bytecode.Link{{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opF(0), Y: opS(0)}}
				for i, kind := range order {
					sum = append(sum, tapLinks(kind, i)...)
				}
				if rowAddend {
					if order[0] != 1 {
						continue // only a plain tap takes a row addend
					}
					sum[1].Z = opR(1)
				}
				sum = append(sum, torow, store)
				name := fmt.Sprintf("taps %v row-addend=%v", order, rowAddend)
				widths := []int{4, 12, 16, 20, 252, 256, 259}
				if k == 20 {
					widths = rowWidths()
				}
				for _, n := range widths {
					if tm := checkRun(t, name, sum, n); len(tm.ops) != len(sum)+1 {
						t.Fatalf("%s: template is %d ops, want one per link and the end sentinel", name, len(tm.ops))
					}
				}
			}
		}
	}
}

// TestPowSpecializations pins the pow handlers to Ipow's exact
// multiply-cascade results for the specialized exponents and the general
// loop, on a row that takes a 16-point block, a 4-point block and the tail.
func TestPowSpecializations(t *testing.T) {
	vals := []float64{2.5, -3, 0.1, 0, math.Inf(1), math.NaN(), 5e-324, 1e200}
	const n = 16 + 4 + 3
	for _, e := range []int{0, 1, 2, -1, -2, 3, -4} {
		for _, v := range vals {
			tm := runTemplate([]bytecode.Link{
				{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opR(0), Y: opS(poolOne)},
				{Op: bytecode.LinkPow, Dst: bytecode.ClassAcc, X: opAcc, N: int32(e)},
				{Op: bytecode.LinkToRow, X: opAcc, N: drainRow},
			})
			b := newRowBufs(n)
			for i := range b.f64[0] {
				b.f64[0][i] = v
			}
			runOps(tm.forms[:len(tm.forms)-1], b.bind(tm), n, 0)
			want := runtime.Ipow(v, e)
			for lane, got := range b.f64[drainRow] {
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("pow exp %d val %v lane %d: got %v, want %v", e, v, lane, got, want)
				}
			}
		}
	}
}

// TestUnknownFormPanics reaches tmpl.add's invariant: a link whose form
// bytecode.LinkShapes does not list has no handler, and building a template
// for it panics by name rather than running something else.
func TestUnknownFormPanics(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "native: link form mul.ss is not in bytecode.LinkShapes" {
			t.Fatalf("panic %q does not name the form", msg)
		}
	}()
	runTemplate([]bytecode.Link{{Op: bytecode.LinkMul, Dst: bytecode.ClassAcc, X: opS(0), Y: opS(1)}})
	t.Fatal("a link with two scalar operands got a handler")
}
