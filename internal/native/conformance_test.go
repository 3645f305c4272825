package native

import (
	"fmt"
	"math"
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// The conformance table: a set of small scenario kernels whose union
// exercises every bytecode opcode, every native segment shape and every
// link form the chain extraction can emit. Each scenario compiles the
// same symbolic nest with both engines over identically initialised
// fields, runs them (sequentially, tiled, and with worker pools of two and
// three, each through the assembly executor and through the pure-Go one;
// grid widths are chosen so both the assembly strip body and the pure-Go
// remainder execute), asserts bit-identical output, and contributes its
// compiled program and lowered segments to the coverage ledger. The final
// assertions fail if any opcode, run shape, link form or tap form is left
// unexercised — so adding one without extending this table is a test
// failure, not a silent gap.

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
	// real pipeline): load/mulvs/addvv/madd chains ending in a store
	// (ShapeChainStore).
	{
		g := grid.MustNew([]int{17, 13}, []float64{3, 5})
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
	// cached load), opPowV, mulvv/maddvv, and a surviving register row
	// (ShapeChain ending in a torow link).
	{
		g := grid.MustNew([]int{12, 21}, nil)
		uB, uN := confTimeFn(t, "u", g, 2)
		mkM := func() *field.Function {
			m, err := field.NewFunction("m", g, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := m.Bufs[0]
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
		g := grid.MustNew([]int{6, 9}, nil)
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
	// loads (F), register rows (R, the three temporaries), pool scalars
	// and the two accumulators — as chain opener, accumulator advance,
	// scratch-chain open/advance and merge. paren keeps a product out of
	// the enclosing sum's madd fusion (a one-term Add compiles to its
	// term), which is how a scratch chain ends in a plain add or mul.
	{
		g := grid.MustNew([]int{7, 13}, nil)
		fB, fN := map[string]*field.Function{}, map[string]*field.Function{}
		uB, uN := confTimeFn(t, "u", g, 2)
		fB["u"], fN["u"] = &uB.Function, &uN.Function
		ref := uB.Ref
		fa, fb := symbolic.Shifted(ref, 0, 0, -1), symbolic.Shifted(ref, 0, 0, 1)
		fc, fd := symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)
		r0, r1, r2 := symbolic.S("r0"), symbolic.S("r1"), symbolic.S("r2")
		s1, s2, s3 := symbolic.S("dt"), symbolic.S("c1"), symbolic.S("c2")
		mul := func(f ...symbolic.Expr) symbolic.Expr { return symbolic.Mul{Factors: f} }
		add := func(t ...symbolic.Expr) symbolic.Expr { return symbolic.Add{Terms: t} }
		paren := func(e symbolic.Expr) symbolic.Expr { return add(e) }
		rhs := []symbolic.Expr{
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
				{Name: "r0", Value: symbolic.At(ref)},
				{Name: "r1", Value: add(mul(fa, s1), s2)},
				{Name: "r2", Value: add(fd, s3)},
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
	// in mixed order: one run of taps, on a row of 16 + 4 + 3 points.
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

	// Cross-equation aliasing at a nonzero offset: the second equation
	// reads the first equation's freshly stored row one point to the left,
	// which the segment extractor must refuse to fuse — the whole program
	// drops to a verbatim VM segment (ShapeVM), the native engine's
	// correctness escape hatch.
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

// TestConformanceOpcodeAndShapeCoverage is the table driver: bit-exact
// native-vs-bytecode execution per scenario, then the coverage
// assertions over the union.
func TestConformanceOpcodeAndShapeCoverage(t *testing.T) {
	opSeen := make([]bool, bytecode.NumOpcodes)
	shapeSeen := map[bytecode.Shape]bool{}
	formSeen := map[string]bool{}
	var tapSeen [3]bool // by term.n: the tap spans n+1 links
	team, pair := runtime.NewPool(3, 0), runtime.NewPool(2, 0)
	defer team.Close()
	defer pair.Close()
	executors := []bool{false} // hasAVX settings to run under
	if hasAVX {
		executors = []bool{true, false}
		defer func() { hasAVX = true }()
	}

	for name, n := range confScenarios(t) {
		t.Run(name, func(t *testing.T) {
			var kB *bytecode.Kernel
			var nk *Kernel
			var err error
			if n.cluster != nil {
				kB, err = bytecode.CompileCluster(n.cluster, n.fB)
				if err != nil {
					t.Fatal(err)
				}
				var bkN *bytecode.Kernel
				bkN, err = bytecode.CompileCluster(n.cluster, n.fN)
				if err != nil {
					t.Fatal(err)
				}
				nk = Wrap(bkN)
			} else {
				kB, err = bytecode.CompileNest(n.assigns, n.eqs, n.radius, n.fB)
				if err != nil {
					t.Fatal(err)
				}
				nk, err = CompileNest(n.assigns, n.eqs, n.radius, n.fN)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, in := range nk.Bytecode().Program() {
				opSeen[in.Op] = true
			}
			// A link form counts as executed only on a row that runs both
			// the strip body and the pure-Go tail.
			row := n.fN[n.outs[0]].LocalShape[len(n.fN[n.outs[0]].LocalShape)-1]
			for _, seg := range nk.Segments() {
				shapeSeen[seg.Shape] = true
				for _, in := range seg.VM {
					opSeen[in.Op] = true
				}
				for _, l := range seg.Links {
					if row >= 4 && row%4 != 0 {
						formSeen[l.String()] = true
					}
				}
			}
			// A tap run counts only on a row whose strip takes the 16-point
			// blocks, the 4-point blocks and the tail.
			if body := row &^ 3; body >= 16 && body%16 != 0 && body < row {
				for _, l := range nk.tm.links {
					for _, tap := range l.terms {
						tapSeen[tap.n] = tapSeen[tap.n] || len(l.terms) > 1
					}
				}
			}
			poolB, err := kB.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			poolN, err := nk.BindSyms(n.vals)
			if err != nil {
				t.Fatal(err)
			}
			// The pooled runs are the -race check that term tables, which
			// patchRow writes, are per-worker copies.
			for _, opts := range []*runtime.ExecOpts{nil, {TileRows: 3}, {TileRows: 2, Pool: team}, {TileRows: 1, Pool: pair}} {
				kB.Run(0, confBox(n.fB[n.outs[0]]), poolB, opts)
				for _, hasAVX = range executors { // assigns the package switch
					nk.Run(0, confBox(n.fN[n.outs[0]]), poolN, opts)
					for _, fn := range n.outs {
						fb, fn2 := n.fB[fn], n.fN[fn]
						for bi := range fb.Bufs {
							da, db := fb.Bufs[bi].Data, fn2.Bufs[bi].Data
							for i := range da {
								if da[i] != db[i] && !(math.IsNaN(float64(da[i])) && math.IsNaN(float64(db[i]))) {
									t.Fatalf("%s (assembly=%v): field %s buf %d lane %d: bytecode %v, native %v",
										name, hasAVX, fn, bi, i, da[i], db[i])
								}
							}
						}
					}
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
	for si, sn := range bytecode.ShapeNames() {
		if !shapeSeen[bytecode.Shape(si)] {
			t.Errorf("segment shape %q not exercised by any conformance scenario", sn)
		}
	}
	for _, form := range bytecode.LinkForms() {
		if !formSeen[form] {
			t.Errorf("link form %q not executed by any conformance scenario", form)
		}
	}
	for n, seen := range tapSeen {
		if !seen {
			t.Errorf("tap-run: no conformance scenario runs a %d-link tap inside a run of taps over 16-point blocks, 4-point blocks and a tail", n+1)
		}
	}
}

// TestRowBoundsGuard pins the guarantee patchRow's per-buffer check keeps:
// a box whose stencil reads stay inside the allocation runs, ghost rows
// included, and one that reaches a row past it panics before any primitive
// touches memory, naming the operand as the per-operand check did.
func TestRowBoundsGuard(t *testing.T) {
	n := confScenarios(t)["diffusion"]
	bk, err := bytecode.CompileCluster(n.cluster, n.fN)
	if err != nil {
		t.Fatal(err)
	}
	nk := Wrap(bk)
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
