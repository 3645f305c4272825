package native

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// The conformance table: a set of small scenario kernels whose union
// exercises every bytecode opcode and every link form the chain extraction
// can emit. Each scenario compiles the same symbolic nest with both engines
// over identically initialised fields, runs them (sequentially, tiled, and
// with worker pools of two and three, each through the assembly executor
// and through the pure-Go one; row widths are chosen so the 16-point
// blocks, the 4-point blocks and the pure-Go remainder all execute),
// asserts bit-identical output, and contributes its compiled program and
// lowered segments to the coverage ledger. The final assertions fail if any opcode or link form is left
// unexercised, or if a form was run by anything but its own handler — so
// adding one without extending this table is a test failure, not a silent
// gap. A scenario the native engine must refuse instead asserts the error
// and holds the bytecode engine to the interpreter.

// confNest is one scenario's symbolic input plus its scratch state: two
// disjoint field sets (one per engine) built over the same grid.
type confNest struct {
	assigns []symbolic.Assignment
	eqs     []symbolic.Eq
	radius  []int
	cluster *ir.Cluster // set instead of eqs for derivative-bearing nests
	fB, fN  map[string]*field.Function
	outs    []string // fields whose buffers are compared
	vals    map[string]float64
	refuse  string // set when Wrap must refuse the program: a fragment of its error
}

// confTimeFn allocates one identically-initialised time function per
// engine.
func confTimeFn(t *testing.T, name string, g *grid.Grid, so int) (*field.TimeFunction, *field.TimeFunction) {
	t.Helper()
	mk := func() *field.TimeFunction {
		u, err := field.NewTimeFunction(name, g, so, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b := mk(), mk()
	for _, f := range []*field.TimeFunction{a, b} {
		buf := f.Buf(0)
		for i := range buf.Data {
			buf.Data[i] = float32((i*13)%29)*0.125 - 1
		}
	}
	return a, b
}

// confScenarios builds the table. Scenario nests are deliberately
// contrived where needed: real propagators never emit opCopy or opMovS
// (the probe scenarios cover the arithmetic vocabulary), so dedicated
// nests pin those paths.
func confScenarios(t *testing.T) map[string]confNest {
	t.Helper()
	out := map[string]confNest{}

	// Diffusion stencil (derivatives expanded through ir.Lower, like the
	// real pipeline): load/mulvs/addvv/madd chains ending in a store link.
	{
		g := grid.MustNew([]int{13, 23}, []float64{3, 5})
		uB, uN := confTimeFn(t, "u", g, 4)
		eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(uB.Ref), 1), RHS: symbolic.Laplace(symbolic.At(uB.Ref), 2, 4)}
		sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(uB.Ref))
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := ir.Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: sol}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		out["diffusion"] = confNest{
			cluster: clusters[0],
			fB:      map[string]*field.Function{"u": &uB.Function},
			fN:      map[string]*field.Function{"u": &uN.Function},
			outs:    []string{"u"},
			vals:    map[string]float64{"dt": 0.001, "h_x": 3, "h_y": 5},
		}
	}

	// Temporaries + per-point powers: opCopy (an assignment aliasing a
	// cached load, a mov.f link), opPowV, mulvv/maddvv, and a surviving
	// register row (a chain ending in a torow link).
	{
		g := grid.MustNew([]int{12, 21}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		mkM := func() *field.Function {
			m, err := field.NewFunction("m", g, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := m.Buf(0)
			for i := range buf.Data {
				buf.Data[i] = 1.5 + float32(i%7)*0.25
			}
			return m
		}
		mB, mN := mkM(), mkM()
		ref, mref := uB.Ref, mB.Ref
		assigns := []symbolic.Assignment{
			// r0 aliases the cached centre load: compiles to opCopy.
			{Name: "r0", Value: symbolic.At(mref)},
			{Name: "r1", Value: symbolic.NewMul(
				symbolic.NewAdd(symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)),
				symbolic.Pow{Base: symbolic.S("r0"), Exp: -2},
			)},
		}
		rhs := symbolic.NewAdd(
			symbolic.NewMul(symbolic.S("r1"), symbolic.S("r1")),
			symbolic.NewMul(symbolic.S("r0"), symbolic.Shifted(ref, 0, 0, -1), symbolic.S("dt")),
			symbolic.Pow{Base: symbolic.At(ref), Exp: 3},
			// Two distinct stencil reads multiplied: fuses as opMaddVV.
			symbolic.NewMul(symbolic.Shifted(ref, 0, 1, 0), symbolic.Shifted(ref, 0, 0, 1)),
		)
		out["temps-pow"] = confNest{
			assigns: assigns,
			eqs:     []symbolic.Eq{{LHS: symbolic.ForwardStencil(ref), RHS: rhs}},
			radius:  []int{1, 1},
			fB:      map[string]*field.Function{"u": &uB.Function, "m": mB},
			fN:      map[string]*field.Function{"u": &uN.Function, "m": mN},
			outs:    []string{"u"},
			vals:    map[string]float64{"dt": 0.37},
		}
	}

	// Pure scalar RHS: opMovS broadcast.
	{
		g := grid.MustNew([]int{6, 23}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		rhs := symbolic.NewMul(symbolic.S("dt"), symbolic.S("dt"))
		out["scalar-broadcast"] = confNest{
			eqs:    []symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: rhs}},
			radius: []int{0, 0},
			fB:     map[string]*field.Function{"u": &uB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function},
			outs:   []string{"u"},
			vals:   map[string]float64{"dt": 0.25},
		}
	}

	// Field + scalar: opAddVS.
	{
		g := grid.MustNew([]int{5, 23}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		rhs := symbolic.NewAdd(symbolic.At(uB.Ref), symbolic.S("dt"))
		out["add-scalar"] = confNest{
			eqs:    []symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: rhs}},
			radius: []int{0, 0},
			fB:     map[string]*field.Function{"u": &uB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function},
			outs:   []string{"u"},
			vals:   map[string]float64{"dt": 0.125},
		}
	}

	// The link-form sweep: one equation per operand pattern, written so
	// the compiler emits each arithmetic opcode over every mix of deferred
	// loads (F), register rows (R, the temporaries), pool scalars and the
	// two accumulators — as chain opener, accumulator advance,
	// scratch-chain open/advance and merge — and both copies a temporary
	// compiles to (mov.f of a load, mov.r of an earlier temporary). paren
	// keeps a product out of the enclosing sum's madd fusion (a one-term
	// Add compiles to its term), which is how a scratch chain ends in a
	// plain add or mul.
	{
		g := grid.MustNew([]int{7, 23}, nil)
		fB, fN := map[string]*field.Function{}, map[string]*field.Function{}
		uB, uN := confTimeFn(t, "u", g, 2)
		fB["u"], fN["u"] = &uB.Function, &uN.Function
		ref := uB.Ref
		fa, fb := symbolic.Shifted(ref, 0, 0, -1), symbolic.Shifted(ref, 0, 0, 1)
		fc, fd := symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)
		r0, r1, r2, r3 := symbolic.S("r0"), symbolic.S("r1"), symbolic.S("r2"), symbolic.S("r3")
		s1, s2, s3 := symbolic.S("dt"), symbolic.S("c1"), symbolic.S("c2")
		mul := func(f ...symbolic.Expr) symbolic.Expr { return symbolic.Mul{Factors: f} }
		add := func(t ...symbolic.Expr) symbolic.Expr { return symbolic.Add{Terms: t} }
		paren := func(e symbolic.Expr) symbolic.Expr { return add(e) }
		rhs := []symbolic.Expr{
			add(r3, fa),                             // add.fr of the mov.r copy
			add(fa, fb),                             // add.ff
			add(fa, r0),                             // add.fr
			add(r0, r1),                             // add.rr
			add(r0, s1),                             // add.rs
			add(mul(fa, s1), s2, fb),                // mul.fs add.as add.fa
			add(mul(fa, s1), paren(mul(fb, s2))),    // t.mul.fs add.at
			mul(fa, fb, s1, fc),                     // mul.ff mul.as mul.fa
			mul(fa, r0, paren(mul(fb, s1))),         // mul.fr mul.at
			symbolic.Pow{Base: mul(r0, s1), Exp: 2}, // mul.rs pow.a
			add(fc, mul(fa, fb)),                    // madd.fff
			add(fc, mul(fa, r0)),                    // madd.frf
			add(fc, mul(r0, r1)),                    // madd.rrf
			add(r0, mul(fa, fb)),                    // madd.ffr
			add(r0, mul(fa, r1)),                    // madd.frr
			add(r2, mul(r0, r1)),                    // madd.rrr
			add(fc, mul(fa, s1)),                    // madd.fsf
			add(fc, mul(r0, s1)),                    // madd.rsf
			add(r0, mul(fa, s1)),                    // madd.fsr
			add(r1, mul(r0, s1)),                    // madd.rsr
			add(mul(fa, s1), mul(fb, r0), mul(r0, r1), mul(r0, s2)), // madd.fra madd.rra madd.rsa
			add(mul(fa, s1),
				mul(fb, s2, s3, fc), // t.mul.fs t.mul.ts madd.fta
				mul(fb, fc, fd, r0), // t.mul.ff t.mul.ft madd.tra
				mul(r0, s2, fb),     // t.mul.rs
				mul(r0, r1, r2, fb), // t.mul.rr t.mul.tr
				mul(fb, fc, s2)),    // madd.tsa
			add(mul(fa, s1), mul(add(mul(fb, s2), mul(fc, s3), mul(r0, s2)), fd)), // t.madd.fst t.madd.rst
		}
		n := confNest{
			assigns: []symbolic.Assignment{
				{Name: "r0", Value: symbolic.At(ref)}, // mov.f
				{Name: "r1", Value: add(mul(fa, s1), s2)},
				{Name: "r2", Value: add(fd, s3)},
				{Name: "r3", Value: r0}, // mov.r
			},
			radius: []int{1, 1},
			fB:     fB, fN: fN,
			vals: map[string]float64{"dt": 0.37, "c1": -1.25, "c2": 0.0625},
		}
		for i, e := range rhs {
			name := fmt.Sprintf("o%d", i)
			oB, oN := confTimeFn(t, name, g, 2)
			fB[name], fN[name] = &oB.Function, &oN.Function
			n.eqs = append(n.eqs, symbolic.Eq{LHS: symbolic.ForwardStencil(oB.Ref), RHS: e})
			n.outs = append(n.outs, name)
		}
		out["link-forms"] = n
	}

	// A stencil-like sum whose taps take all three forms — scalar
	// coefficient, field × scalar coefficient, field × scalar × scalar —
	// in mixed order, on a row of 16 + 4 + 3 points.
	{
		g := grid.MustNew([]int{5, 23}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		ref := uB.Ref
		fa, fb := symbolic.Shifted(ref, 0, 0, -1), symbolic.Shifted(ref, 0, 0, 1)
		fc, fd := symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)
		s1, s2, s3 := symbolic.S("dt"), symbolic.S("c1"), symbolic.S("c2")
		mul := func(f ...symbolic.Expr) symbolic.Expr { return symbolic.Mul{Factors: f} }
		rhs := symbolic.Add{Terms: []symbolic.Expr{
			mul(fa, s1),
			mul(fb, s2, fc), mul(fc, s3), mul(fd, s2, s3, fa), mul(fb, s1),
			mul(fa, s3, s1, fd), mul(fc, s1, fb), mul(fd, s2),
		}}
		out["tap-run"] = confNest{
			eqs:    []symbolic.Eq{{LHS: symbolic.ForwardStencil(ref), RHS: rhs}},
			radius: []int{1, 1},
			fB:     map[string]*field.Function{"u": &uB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function},
			outs:   []string{"u"},
			vals:   map[string]float64{"dt": 0.37, "c1": -1.25, "c2": 0.0625},
		}
	}

	// Three chains in one run: the second consumes the first's register
	// row, the third both rows, and a fourth equation re-reads, at offset
	// zero, the buffer the third has just stored — everything a run's block
	// order has to keep point-local (TestRunSpansSegmentsBlockMajor). The
	// row is two 16-point blocks, a 4-point block and a tail of three.
	{
		g := grid.MustNew([]int{9, 39}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		vB, vN := confTimeFn(t, "v", g, 2)
		ref := uB.Ref
		fa, fb := symbolic.Shifted(ref, 0, 0, -1), symbolic.Shifted(ref, 0, 0, 1)
		fc, fd := symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)
		r0, r1 := symbolic.S("r0"), symbolic.S("r1")
		s1, s2, s3 := symbolic.S("dt"), symbolic.S("c1"), symbolic.S("c2")
		out["three-chains"] = confNest{
			assigns: []symbolic.Assignment{
				{Name: "r0", Value: symbolic.NewAdd(symbolic.NewMul(fa, s1), s2)},
				{Name: "r1", Value: symbolic.NewAdd(symbolic.NewMul(r0, fb), symbolic.NewMul(fc, s3))},
			},
			eqs: []symbolic.Eq{
				{LHS: symbolic.ForwardStencil(ref), RHS: symbolic.NewAdd(symbolic.NewMul(r1, r0), symbolic.NewMul(fd, s1))},
				{LHS: symbolic.ForwardStencil(vB.Ref), RHS: symbolic.NewAdd(symbolic.NewMul(symbolic.Shifted(ref, 1, 0, 0), s2), r1)},
			},
			radius: []int{1, 1},
			fB:     map[string]*field.Function{"u": &uB.Function, "v": &vB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function, "v": &vN.Function},
			outs:   []string{"u", "v"},
			vals:   map[string]float64{"dt": 0.37, "c1": -1.25, "c2": 0.0625},
		}
	}

	// A one-compute chain between two chains, inside their run: r2 is read
	// twice, so it is drained into a register row, and its one add reads
	// the first chain's row (TestRunSpansSegmentsBlockMajor).
	{
		g := grid.MustNew([]int{8, 39}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		ref := uB.Ref
		fa, fb := symbolic.Shifted(ref, 0, 0, -1), symbolic.Shifted(ref, 0, 0, 1)
		r1, r2 := symbolic.S("r1"), symbolic.S("r2")
		s1, s2, s3 := symbolic.S("dt"), symbolic.S("c1"), symbolic.S("c2")
		out["one-compute-chain"] = confNest{
			assigns: []symbolic.Assignment{
				{Name: "r1", Value: symbolic.NewAdd(symbolic.NewMul(fa, s1), s2)},
				{Name: "r2", Value: symbolic.NewAdd(r1, s3)},
			},
			eqs:    []symbolic.Eq{{LHS: symbolic.ForwardStencil(ref), RHS: symbolic.NewAdd(symbolic.NewMul(r2, fb), symbolic.NewMul(r2, fa), r1)}},
			radius: []int{0, 1},
			fB:     map[string]*field.Function{"u": &uB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function},
			outs:   []string{"u"},
			vals:   map[string]float64{"dt": 0.37, "c1": -1.25, "c2": 0.0625},
		}
	}

	// Cross-equation aliasing at a nonzero offset: the second equation
	// reads the first equation's freshly stored row one point to the left,
	// which a run, executing point by point, would see already overwritten.
	// The native engine refuses the program, naming the equation and the
	// slot; the bytecode engine's row sweeps still run it. (ir splits such
	// equations into separate kernels, so no operator reaches this.)
	{
		g := grid.MustNew([]int{6, 18}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		vB, vN := confTimeFn(t, "v", g, 2)
		// Field references resolve by name at compile time, so one equation
		// set serves both engines' field maps.
		eqs := []symbolic.Eq{
			{LHS: symbolic.ForwardStencil(uB.Ref), RHS: symbolic.NewAdd(symbolic.At(uB.Ref), symbolic.S("dt"))},
			{LHS: symbolic.ForwardStencil(vB.Ref), RHS: symbolic.NewMul(symbolic.Shifted(uB.Ref, 1, 0, -1), symbolic.Int(2))},
		}
		out["store-alias-vm"] = confNest{
			eqs:    eqs,
			radius: []int{0, 1},
			fB:     map[string]*field.Function{"u": &uB.Function, "v": &vB.Function},
			fN:     map[string]*field.Function{"u": &uN.Function, "v": &vN.Function},
			outs:   []string{"u", "v"},
			vals:   map[string]float64{"dt": 0.5},
			refuse: "equation 0 stores u at time offset +1, which slot 1 reads at stencil offset [0 -1 0]",
		}
	}
	return out
}

func confBox(f *field.Function) runtime.Box {
	nd := f.NDims()
	b := runtime.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	copy(b.Hi, f.LocalShape)
	return b
}

// confBytecode compiles the scenario's nest with the bytecode compiler
// over one of its field sets.
func confBytecode(t *testing.T, n confNest, fields map[string]*field.Function) *bytecode.Kernel {
	t.Helper()
	var k *bytecode.Kernel
	var err error
	if n.cluster != nil {
		k, err = bytecode.CompileNest(nil, n.cluster.Eqs, n.cluster.Radius, fields)
	} else {
		k, err = bytecode.CompileNest(n.assigns, n.eqs, n.radius, fields)
	}
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// confCompile compiles the scenario with both engines, each over its own
// field set.
func confCompile(t *testing.T, n confNest) (*bytecode.Kernel, *Kernel) {
	t.Helper()
	nk, err := Wrap(confBytecode(t, n, n.fN))
	if err != nil {
		t.Fatal(err)
	}
	return confBytecode(t, n, n.fB), nk
}

// confRefused asserts that Wrap refuses the scenario with its error, and
// that the bytecode engine still runs it, bit for bit as the interpreter.
func confRefused(t *testing.T, n confNest) {
	t.Helper()
	if _, err := Wrap(confBytecode(t, n, n.fN)); err == nil || !strings.Contains(err.Error(), n.refuse) {
		t.Fatalf("Wrap returned %v, want an error containing %q", err, n.refuse)
	}
	kB := confBytecode(t, n, n.fB)
	kI, err := runtime.CompileNest(n.assigns, n.eqs, n.radius, n.fN)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []runtime.ExecKernel{kB, kI} {
		pool, err := k.BindSyms(n.vals)
		if err != nil {
			t.Fatal(err)
		}
		k.Run(0, confBox(n.fB[n.outs[0]]), pool, nil)
	}
	confSameFields(t, n, "bytecode vs interpreter")
}

// confSameFields fails on the first output lane where the two engines'
// field sets differ.
func confSameFields(t *testing.T, n confNest, label string) {
	t.Helper()
	for _, name := range n.outs {
		fb, fn := n.fB[name], n.fN[name]
		for bi := range fb.Bufs {
			da, db := fb.Buf(bi).Data, fn.Buf(bi).Data
			for i := range da {
				if da[i] != db[i] && !(math.IsNaN(float64(da[i])) && math.IsNaN(float64(db[i]))) {
					t.Fatalf("%s: field %s buf %d lane %d: reference %v, native %v", label, name, bi, i, da[i], db[i])
				}
			}
		}
	}
}

// confExecutors lists the hasAVX settings to run under — the assembly where
// the host has it, and always the pure-Go executor — and returns the
// function that restores the package switch.
func confExecutors() ([]bool, func()) {
	host := hasAVX
	if host {
		return []bool{true, false}, func() { hasAVX = host }
	}
	return []bool{false}, func() {}
}

// takesEveryWidth reports whether a row of n points runs the 16-point
// blocks, the 4-point blocks and the pure-Go tail.
func takesEveryWidth(n int) bool {
	body := n &^ 3
	return body >= blockN && body%blockN != 0 && body < n
}

// TestConformanceOpcodeAndShapeCoverage is the table driver: bit-exact
// native-vs-bytecode execution per scenario, then the coverage
// assertions over the union.
func TestConformanceOpcodeAndShapeCoverage(t *testing.T) {
	opSeen := make([]bool, bytecode.NumOpcodes)
	// ranBy[form] is the set of executors that ran a link of that form on a
	// row that takes every block width: the names of the handlers the
	// template bound.
	ranBy := map[string]map[string]bool{}
	team, pair := runtime.NewPool(3, 0), runtime.NewPool(2, 0)
	defer team.Close()
	defer pair.Close()
	executors, restore := confExecutors()
	defer restore()

	for name, n := range confScenarios(t) {
		t.Run(name, func(t *testing.T) {
			if n.refuse != "" {
				confRefused(t, n)
				return
			}
			kB, nk := confCompile(t, n)
			for _, in := range nk.Bytecode().Program() {
				opSeen[in.Op] = true
			}
			shape := n.fN[n.outs[0]].LocalShape
			row := shape[len(shape)-1]
			links := 0
			for _, seg := range nk.Segments() {
				links += len(seg.Links)
				for _, l := range seg.Links {
					f := formOf(l)
					if h := handlers(formIndex[f]); hasAVX && (h[0] == 0 || h[1] == 0) {
						t.Errorf("link form %s has no assembly handler", f)
					}
					if takesEveryWidth(row) {
						if ranBy[l.String()] == nil {
							ranBy[l.String()] = map[string]bool{}
						}
						ranBy[l.String()][f.String()] = true
					}
				}
			}
			if tm := nk.tms[partAll]; len(tm.ops) != links+1 || tm.forms[links].op != opEnd {
				t.Fatalf("template is %d ops, want the %d links of every segment and one end sentinel: one run", len(tm.ops), links)
			}
			poolB, err := kB.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			poolN, err := nk.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			// The pooled runs are the -race check that op tables, which
			// patchRows writes, are per-worker copies.
			for _, opts := range []*runtime.ExecOpts{nil, {TileRows: 3}, {TileRows: 2, Pool: team}, {TileRows: 1, Pool: pair}} {
				kB.Run(0, confBox(n.fB[n.outs[0]]), poolB, opts)
				for _, hasAVX = range executors { // assigns the package switch
					nk.Run(0, confBox(n.fN[n.outs[0]]), poolN, opts)
					confSameFields(t, n, fmt.Sprintf("%s (assembly=%v)", name, hasAVX))
				}
			}
			if kB.FlopsPerPoint() != nk.FlopsPerPoint() {
				t.Errorf("flop accounting differs: bytecode %d, native %d",
					kB.FlopsPerPoint(), nk.FlopsPerPoint())
			}
		})
	}

	for op := 0; op < bytecode.NumOpcodes; op++ {
		if !opSeen[op] {
			t.Errorf("opcode %q not exercised by any conformance scenario", bytecode.OpName(byte(op)))
		}
	}
	// One executor per form: the run handler named after it (a power's
	// handlers, one per exponent kind, are named after it too). The table
	// is docs/ARCHITECTURE.md's.
	t.Log("form -> executor (run handlers; no other executor exists)")
	for _, form := range bytecode.LinkForms() {
		var by []string
		for h := range ranBy[form] {
			by = append(by, h)
			if h != form && !strings.HasPrefix(h, form+"^") {
				t.Errorf("link form %q was run by %q, not by its own handler", form, h)
			}
		}
		if len(by) == 0 {
			t.Errorf("link form %q not executed by any conformance scenario on a row that takes the 16-point blocks, the 4-point blocks and the tail", form)
		}
		sort.Strings(by)
		t.Logf("%-12s %s", form, strings.Join(by, " "))
	}
}

// TestRunSpansSegmentsBlockMajor: the chain segments of one run execute
// block-major — all of them on one block of 16 points, then the next block
// — and that order gives the bits of the order it replaces, one segment at
// a time over the whole row. three-chains is three chains, the second
// reading the first's register row and the third both, plus an equation
// that re-reads at offset zero what the third has just stored;
// one-compute-chain has a chain of a single add between two chains, reading
// the first's register row. The reference runs every segment as a template
// of its own, through the pure-Go executor.
func TestRunSpansSegmentsBlockMajor(t *testing.T) {
	for name, drains := range map[string]string{
		"three-chains":      "torow torow store store",
		"one-compute-chain": "torow torow store",
	} {
		t.Run(name, func(t *testing.T) {
			n := confScenarios(t)[name]
			kB, nk := confCompile(t, n)
			segs := nk.Segments()
			var got []string
			for _, seg := range segs {
				got = append(got, seg.Links[len(seg.Links)-1].String())
			}
			if strings.Join(got, " ") != drains {
				t.Fatalf("program lowered to segments ending %q, want %q", got, drains)
			}
			row := opR(int(segs[0].Links[len(segs[0].Links)-1].N))
			if l := segs[1].Links[0]; l.X != row && l.Y != row && l.Z != row {
				t.Fatalf("segment 1 opens with %v, want a read of segment 0's register row %d", l, row.Index)
			}
			bd := nk.Bytecode().Binding()
			switch name {
			case "three-chains":
				if slot, out := bd.Slots[segs[3].Links[0].X.Index], bd.Outs[0]; slot != (runtime.Slot{Field: out.Field, TimeOff: out.TimeOff}) {
					t.Fatalf("segment 3 reads slot %+v, want a zero-offset re-read of equation 0's output %+v", slot, out)
				}
			case "one-compute-chain":
				if len(segs[1].Links) != 2 {
					t.Fatalf("segment 1 is %v, want one compute and its torow", segs[1].Links)
				}
			}

			ref, err := Wrap(kB)
			if err != nil {
				t.Fatal(err)
			}
			seg := &segmentAtATime{scs: map[*scratch][]scratch{}}
			for _, s := range segs {
				part := *ref
				part.tms[partAll] = part.template([]bytecode.Segment{s}, nil, nil, partAll)
				seg.parts = append(seg.parts, &part)
			}
			poolB, err := ref.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			poolN, err := nk.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			team := runtime.NewPool(3, 0)
			defer team.Close()
			executors, restore := confExecutors()
			defer restore()
			hasAVX = false
			ref.drv.Run(seg, 0, confBox(n.fB["u"]), poolB, nil)
			for _, opts := range []*runtime.ExecOpts{nil, {TileRows: 1, Pool: team}} {
				for _, hasAVX = range executors {
					nk.Run(0, confBox(n.fN["u"]), poolN, opts)
					confSameFields(t, n, fmt.Sprintf("block-major (assembly=%v, pool=%v) vs segment-at-a-time", hasAVX, opts != nil))
				}
			}
		})
	}
}

// segmentAtATime is the order a run's block-major walk replaces: every
// segment a run of its own, executed over the whole row before the next.
// Its parts share one driver, the one it is run by, and each worker's
// parts share one register file.
type segmentAtATime struct {
	parts []*Kernel
	scs   map[*scratch][]scratch // per worker, one scratch per part
}

func (s *segmentAtATime) Prep(sc *scratch, maxRow int, pool []float64) {
	if n := s.parts[0].bk.NumRegisters() * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
		s.scs[sc] = nil
	}
	if s.scs[sc] == nil {
		s.scs[sc] = make([]scratch, len(s.parts))
	}
	for i, k := range s.parts {
		s.scs[sc][i].regs = sc.regs
		k.Prep(&s.scs[sc][i], maxRow, pool)
	}
}

func (s *segmentAtATime) ExecRows(sc *scratch, n, rows int, bases, pitch []int, pool []float64) {
	for r := 0; r < rows; r++ {
		if r > 0 {
			runtime.NextRow(bases, pitch)
		}
		for i, k := range s.parts {
			k.ExecRows(&s.scs[sc][i], n, 1, bases, pitch, pool)
		}
	}
}

// TestChainSegmentsArePointLocal pins the invariant buildTemplate's block
// order rests on: whatever the extraction lowers to a run reads the
// buffers the program stores at offset zero only. The scenarios include a
// chain that does re-read a stored buffer (three-chains) and a program
// that reads one at a nonzero offset, which Wrap must refuse.
func TestChainSegmentsArePointLocal(t *testing.T) {
	rereads := 0
	for name, n := range confScenarios(t) {
		bk := confBytecode(t, n, n.fN)
		bd := bk.Binding()
		stored := map[runtime.Out]bool{}
		for _, out := range bd.Outs {
			stored[out] = true
		}
		shifted := false // the program reads a stored buffer off the point
		for _, slot := range bd.Slots {
			if stored[runtime.Out{Field: slot.Field, TimeOff: slot.TimeOff}] && slot.Off != [runtime.MaxDims]int{} {
				shifted = true
			}
		}
		if name == "store-alias-vm" && !shifted {
			t.Errorf("%s no longer reads a stored buffer at a nonzero offset", name)
		}
		nk, err := Wrap(bk)
		if shifted {
			if err == nil {
				t.Errorf("%s: a program that reads a stored buffer at a nonzero offset lowered to a run", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, seg := range nk.Segments() {
			for _, l := range seg.Links {
				for _, o := range [...]bytecode.Operand{l.X, l.Y, l.Z} {
					if o.Class != bytecode.ClassF {
						continue
					}
					if slot := bd.Slots[o.Index]; stored[runtime.Out{Field: slot.Field, TimeOff: slot.TimeOff}] {
						rereads++
						if slot.Off != [runtime.MaxDims]int{} {
							t.Errorf("%s: chain link %s reads stored buffer %+v off the point", name, l, slot)
						}
					}
				}
			}
		}
	}
	if rereads == 0 {
		t.Error("no scenario re-reads a stored buffer inside a chain: the invariant is not exercised")
	}
}

// TestRowBoundsGuard pins the guarantee patchRows' per-buffer check keeps:
// a box whose stencil reads stay inside the allocation runs, ghost rows
// included, and one that reaches a row past it panics before any primitive
// touches memory, naming the operand as the per-operand check did.
func TestRowBoundsGuard(t *testing.T) {
	n := confScenarios(t)["diffusion"]
	bk, err := bytecode.CompileNest(nil, n.cluster.Eqs, n.cluster.Radius, n.fN)
	if err != nil {
		t.Fatal(err)
	}
	nk, err := Wrap(bk)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nk.BindSyms(n.vals)
	if err != nil {
		t.Fatal(err)
	}
	u := n.fN["u"]
	// The widest box the radius-2 stencil can sweep: the owned points plus
	// halo-2 ghost points per side.
	b := confBox(u)
	for d := range b.Lo {
		b.Lo[d] -= u.Halo[d] - 2
		b.Hi[d] += u.Halo[d] - 2
	}
	nk.Run(0, b, pool, nil)

	b.Hi[0] += 3 // the last row's +2 read now starts past the buffer
	defer func() {
		msg := fmt.Sprint(recover())
		var lo, hi, slot, size int
		if _, err := fmt.Sscanf(msg, "native: row [%d:%d) out of bounds of slot %d (len %d)", &lo, &hi, &slot, &size); err != nil {
			t.Fatalf("panic %q does not name the operand's row", msg)
		}
		if size != len(u.Buf(0).Data) || hi <= size || hi-lo != b.Hi[1]-b.Lo[1] {
			t.Errorf("panic %q: want a %d-point row ending past the buffer's %d", msg, b.Hi[1]-b.Lo[1], len(u.Buf(0).Data))
		}
	}()
	nk.Run(0, b, pool, nil)
	t.Fatal("a row past the allocation ran")
}
