package bytecode

import (
	"fmt"
	"math"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// buildDiffusion lowers the Listing-1 diffusion update over a grid and
// returns both engines' kernels compiled from the same cluster, plus two
// identically-initialised fields (one per engine).
func buildDiffusion(t *testing.T, g *grid.Grid, so int) (*Kernel, *runtime.Kernel, *field.TimeFunction, *field.TimeFunction) {
	t.Helper()
	mk := func(name string) *field.TimeFunction {
		u, err := field.NewTimeFunction(name, g, so, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	uB, uI := mk("u"), mk("u")
	eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(uB.Ref), 1), RHS: symbolic.Laplace(symbolic.At(uB.Ref), g.NDims(), so)}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(uB.Ref))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ir.Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: sol}}, g.NDims())
	if err != nil {
		t.Fatal(err)
	}
	kB, err := CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{"u": &uB.Function})
	if err != nil {
		t.Fatal(err)
	}
	kI, err := runtime.CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{"u": &uI.Function})
	if err != nil {
		t.Fatal(err)
	}
	return kB, kI, uB, uI
}

func patternInit(fs ...*field.TimeFunction) {
	for _, f := range fs {
		buf := f.Buf(0)
		for i := range buf.Data {
			buf.Data[i] = float32((i*13)%29) * 0.125
		}
	}
}

func domainBox(f *field.Function) runtime.Box {
	nd := f.NDims()
	b := runtime.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	copy(b.Hi, f.LocalShape)
	return b
}

func compareBuf(t *testing.T, label string, a, b *field.Buffer) {
	t.Helper()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] && !(math.IsNaN(float64(a.Data[i])) && math.IsNaN(float64(b.Data[i]))) {
			t.Fatalf("%s: engines diverge at flat index %d: bytecode=%v interpreter=%v",
				label, i, a.Data[i], b.Data[i])
		}
	}
}

func TestBitExactDiffusion(t *testing.T) {
	for _, so := range []int{2, 4, 8} {
		g := grid.MustNew([]int{17, 13}, []float64{3, 5})
		kB, kI, uB, uI := buildDiffusion(t, g, so)
		patternInit(uB, uI)
		vals := map[string]float64{"dt": 0.001, "h_x": g.Spacing(0), "h_y": g.Spacing(1)}
		poolB, err := kB.BindSyms(vals)
		if err != nil {
			t.Fatal(err)
		}
		symsI, err := kI.BindSyms(vals)
		if err != nil {
			t.Fatal(err)
		}
		kB.Run(0, domainBox(&uB.Function), poolB, nil)
		kI.Run(0, domainBox(&uI.Function), symsI, nil)
		compareBuf(t, "diffusion", uB.Buf(1), uI.Buf(1))
	}
}

func TestBitExact1DAnd3D(t *testing.T) {
	for _, shape := range [][]int{{37}, {7, 6, 5}} {
		g := grid.MustNew(shape, nil)
		kB, kI, uB, uI := buildDiffusion(t, g, 2)
		patternInit(uB, uI)
		vals := map[string]float64{"dt": 0.01, "h_x": 1, "h_y": 1, "h_z": 1}
		poolB, _ := kB.BindSyms(vals)
		symsI, _ := kI.BindSyms(vals)
		kB.Run(0, domainBox(&uB.Function), poolB, &runtime.ExecOpts{TileRows: 3})
		kI.Run(0, domainBox(&uI.Function), symsI, &runtime.ExecOpts{TileRows: 3})
		compareBuf(t, "shape", uB.Buf(1), uI.Buf(1))
	}
}

// TestBitExactNestWithTempsAndPow exercises CSE temporaries, per-point
// powers, reciprocal strength reduction and madd fusion in one nest.
func TestBitExactNestWithTempsAndPow(t *testing.T) {
	g := grid.MustNew([]int{12, 11}, nil)
	mk := func() (*field.TimeFunction, *field.Function) {
		u, err := field.NewTimeFunction("u", g, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := field.NewFunction("m", g, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return u, m
	}
	uB, mB := mk()
	uI, mI := mk()
	patternInit(uB, uI)
	for _, mm := range []*field.Function{mB, mI} {
		buf := mm.Buf(0)
		for i := range buf.Data {
			buf.Data[i] = 1.5 + float32(i%7)*0.25
		}
	}
	ref := uB.Ref
	mref := mB.Ref
	// r0 = (u[t,x-1,y] + u[t,x+1,y]) * m[x,y]**-1  (per-point temp with a
	// per-point reciprocal), then:
	//   u[t+1] = r0*r0 + dt*(1/dt)*u[t] + r0*2 + (u[t,x,y-1]*m*dt)
	// covering: temp reuse, PowV, scalar reciprocal (1/dt at bind time),
	// VS/VV madd fusion and duplicate-load caching.
	r0 := symbolic.Assignment{
		Name: "r0",
		Value: symbolic.NewMul(
			symbolic.NewAdd(symbolic.Shifted(ref, 0, -1, 0), symbolic.Shifted(ref, 0, 1, 0)),
			symbolic.Pow{Base: symbolic.At(mref), Exp: -1},
		),
	}
	rhs := symbolic.NewAdd(
		symbolic.NewMul(symbolic.S("r0"), symbolic.S("r0")),
		symbolic.NewMul(symbolic.S("dt"), symbolic.Pow{Base: symbolic.S("dt"), Exp: -1}, symbolic.At(ref)),
		symbolic.NewMul(symbolic.S("r0"), symbolic.Int(2)),
		symbolic.NewMul(symbolic.Shifted(ref, 0, 0, -1), symbolic.At(mref), symbolic.S("dt")),
	)
	eqs := []symbolic.Eq{{LHS: symbolic.ForwardStencil(ref), RHS: rhs}}
	radius := []int{1, 1}

	kB, err := CompileNest([]symbolic.Assignment{r0}, eqs, radius,
		map[string]*field.Function{"u": &uB.Function, "m": mB})
	if err != nil {
		t.Fatal(err)
	}
	kI, err := runtime.CompileNest([]symbolic.Assignment{r0}, eqs, radius,
		map[string]*field.Function{"u": &uI.Function, "m": mI})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{"dt": 0.37}
	poolB, err := kB.BindSyms(vals)
	if err != nil {
		t.Fatal(err)
	}
	symsI, err := kI.BindSyms(vals)
	if err != nil {
		t.Fatal(err)
	}
	kB.Run(0, domainBox(&uB.Function), poolB, nil)
	kI.Run(0, domainBox(&uI.Function), symsI, nil)
	compareBuf(t, "temps+pow", uB.Buf(1), uI.Buf(1))
	if kB.FlopsPerPoint() != kI.FlopsPerPoint() {
		t.Errorf("flop accounting differs: bytecode %d, interpreter %d",
			kB.FlopsPerPoint(), kI.FlopsPerPoint())
	}
}

// TestMultiEquationRowOrdering mirrors the interpreter's contract: a later
// equation reading an earlier equation's output at the centre point must
// observe the freshly stored value.
func TestMultiEquationRowOrdering(t *testing.T) {
	g := grid.MustNew([]int{6}, nil)
	a, _ := field.NewTimeFunction("a", g, 2, 1, nil)
	bf, _ := field.NewTimeFunction("b", g, 2, 1, nil)
	eq1 := symbolic.Eq{LHS: symbolic.ForwardStencil(a.Ref), RHS: symbolic.NewAdd(symbolic.At(a.Ref), symbolic.Int(1))}
	eq2 := symbolic.Eq{LHS: symbolic.ForwardStencil(bf.Ref), RHS: symbolic.NewMul(symbolic.Int(2), symbolic.ForwardStencil(a.Ref))}
	clusters, err := ir.Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("expected fusion, got %d clusters", len(clusters))
	}
	k, err := CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{"a": &a.Function, "b": &bf.Function})
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := k.BindSyms(nil)
	k.Run(0, domainBox(&a.Function), pool, nil)
	if got := bf.AtDomain(1, 3); got != 2 {
		t.Errorf("b = %v, want 2 (must read the freshly stored a[t+1] = 1)", got)
	}
}

func TestTiledAndParallelMatchSequential(t *testing.T) {
	g := grid.MustNew([]int{21, 10}, nil)
	run := func(opts *runtime.ExecOpts) *field.TimeFunction {
		kB, _, uB, _ := buildDiffusion(t, g, 4)
		patternInit(uB)
		pool, err := kB.BindSyms(map[string]float64{"dt": 0.05, "h_x": 1, "h_y": 1})
		if err != nil {
			t.Fatal(err)
		}
		kB.Run(0, domainBox(&uB.Function), pool, opts)
		return uB
	}
	seq := run(nil)
	tiled := run(&runtime.ExecOpts{TileRows: 4})
	p := runtime.NewPool(4, 0)
	defer p.Close()
	par := run(&runtime.ExecOpts{TileRows: 2, Pool: p})
	compareBuf(t, "tiled", seq.Buf(1), tiled.Buf(1))
	compareBuf(t, "parallel", seq.Buf(1), par.Buf(1))
}

func TestEmptyBoxNoOp(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	kB, _, uB, _ := buildDiffusion(t, g, 2)
	pool, _ := kB.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	kB.Run(0, runtime.Box{Lo: []int{4, 4}, Hi: []int{4, 8}}, pool, nil)
	for _, v := range uB.Buf(1).Data {
		if v != 0 {
			t.Fatal("empty box must not write")
		}
	}
}

func TestTileLargerThanOuterDim(t *testing.T) {
	g := grid.MustNew([]int{5, 9}, nil)
	kB, kI, uB, uI := buildDiffusion(t, g, 2)
	patternInit(uB, uI)
	vals := map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1}
	poolB, _ := kB.BindSyms(vals)
	symsI, _ := kI.BindSyms(vals)
	// TileRows far beyond the outer extent must clamp, not crash or skip.
	kB.Run(0, domainBox(&uB.Function), poolB, &runtime.ExecOpts{TileRows: 1000})
	kI.Run(0, domainBox(&uI.Function), symsI, &runtime.ExecOpts{TileRows: 1000})
	compareBuf(t, "clamped tile", uB.Buf(1), uI.Buf(1))
}

func TestBindSymsMissingErrors(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	kB, _, _, _ := buildDiffusion(t, g, 2)
	if _, err := kB.BindSyms(map[string]float64{"dt": 0.1}); err == nil {
		t.Error("missing h_x binding should error")
	}
}

// TestLoadDeduplication asserts the register compiler's headline win over
// the stack interpreter: one load per distinct (field, offset) slot.
func TestLoadDeduplication(t *testing.T) {
	g := grid.MustNew([]int{9, 9}, nil)
	u, _ := field.NewTimeFunction("u", g, 2, 1, nil)
	// u[t,x,y] appears three times; it must load once.
	rhs := symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(u.Ref), symbolic.At(u.Ref)),
		symbolic.At(u.Ref),
	)
	k, err := CompileNest(nil, []symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: rhs}},
		[]int{0, 0}, map[string]*field.Function{"u": &u.Function})
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	for _, in := range k.prog {
		if in.Op == OpLoad {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("duplicate reads should compile to 1 load, got %d", loads)
	}
}

// TestConstantFoldingAndStrengthReduction asserts that pure-constant
// scalar work folds at compile time and sym-dependent scalars (like 1/dt)
// move to the bind-time prelude rather than the row program.
func TestConstantFoldingAndStrengthReduction(t *testing.T) {
	g := grid.MustNew([]int{9}, nil)
	u, _ := field.NewTimeFunction("u", g, 2, 1, nil)
	// (2*3) folds to a constant; dt**-1 becomes one prelude entry used as
	// a multiply; no PowV or per-row scalar ops may remain.
	rhs := symbolic.NewMul(
		symbolic.Mul{Factors: []symbolic.Expr{symbolic.Int(2), symbolic.Int(3)}},
		symbolic.Pow{Base: symbolic.S("dt"), Exp: -1},
		symbolic.At(u.Ref),
	)
	k, err := CompileNest(nil, []symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: rhs}},
		[]int{0}, map[string]*field.Function{"u": &u.Function})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range k.prog {
		if in.Op == OpPowV {
			t.Error("scalar power must be strength-reduced to a bind-time reciprocal")
		}
	}
	pool, err := k.BindSyms(map[string]float64{"dt": 4})
	if err != nil {
		t.Fatal(err)
	}
	u.SetDomain(0, 2, 4)
	k.Run(0, domainBox(&u.Function), pool, nil)
	// 6 * (1/4) * 2 = 3.
	if got := u.AtDomain(1, 4); got != 3 {
		t.Errorf("folded kernel computed %v, want 3", got)
	}
	if got := math.Float64bits(pool[k.symSlots[0]]); got != math.Float64bits(4) {
		t.Errorf("dt slot = %x", got)
	}
}

// TestExtractSegmentsRefusesNonPointLocal reaches the two cases of
// checkPointLocal with hand-written programs, since the compiler emits
// neither: a load consumed after a store to its buffer, and a read of a
// stored buffer at a nonzero offset. Each is an error naming the equation
// and the slot, and the same programs without the hazard lower.
func TestExtractSegmentsRefusesNonPointLocal(t *testing.T) {
	bd := &runtime.Binding{
		Names: []string{"u", "v"},
		Slots: []runtime.Slot{{Field: 0, TimeOff: 1}, {Field: 1}},
		Outs:  []runtime.Out{{Field: 0, TimeOff: 1}, {Field: 1, TimeOff: 1}},
	}
	// r0 = u[t+1]; r1 = v[t]; r2 = r1*r1; store u[t+1] = r2; then r0 is
	// consumed by the store of v[t+1] or, in the safe program, before it.
	past := []Instr{
		{Op: OpLoad, Rd: 0, B: 0}, {Op: OpLoad, Rd: 1, B: 1},
		{Op: OpMulVV, Rd: 2, A: 1, B: 1}, {Op: OpStore, A: 2, B: 0},
		{Op: OpStore, A: 0, B: 1},
	}
	if _, err := ExtractSegments(past, bd); err == nil ||
		err.Error() != "bytecode: equation 0 stores u at time offset +1 after slot 0 loads it and before the load is consumed" {
		t.Errorf("a load consumed past a store to its buffer: got %v", err)
	}
	before := []Instr{past[0], past[1], {Op: OpAddVV, Rd: 3, A: 0, B: 1}, past[2], past[3], {Op: OpStore, A: 3, B: 1}}
	segs, err := ExtractSegments(before, bd)
	if err != nil {
		t.Fatalf("a load consumed before the store: %v", err)
	}
	var forms []string
	for _, seg := range segs {
		for _, l := range seg.Links {
			forms = append(forms, l.String())
		}
	}
	if got := fmt.Sprint(forms); got != "[add.ff torow mul.ff store mov.r store]" {
		t.Errorf("lowered to %s", got)
	}

	bd.Slots[0].Off[1] = -1
	if _, err := ExtractSegments(before, bd); err == nil ||
		err.Error() != "bytecode: equation 0 stores u at time offset +1, which slot 0 reads at stencil offset [0 -1 0]: the read is not point-local" {
		t.Errorf("an offset read of a stored buffer: got %v", err)
	}
}

// TestInvariantSegments pins what holds still through an Apply: a chain
// that ends in a torow and reads only single-buffer fields nobody writes,
// scalars and rows of such chains. r0 reads only m; r3 only r0's row; r1
// reads grad, which the second equation writes; r2 reads the wavefield.
// Told that nobody writes grad, r1 holds still too.
func TestInvariantSegments(t *testing.T) {
	g := grid.MustNew([]int{12, 11}, nil)
	u, err := field.NewTimeFunction("u", g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := field.NewFunction("m", g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := field.NewFunction("grad", g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	S := symbolic.S
	assigns := []symbolic.Assignment{
		{Name: "r0", Value: symbolic.NewMul(symbolic.Int(3), symbolic.Pow{Base: symbolic.At(m.Ref), Exp: -1})},
		{Name: "r1", Value: symbolic.NewMul(symbolic.Int(2), symbolic.At(grad.Ref), symbolic.At(grad.Ref))},
		{Name: "r2", Value: symbolic.NewMul(S("r0"), symbolic.At(u.Ref))},
		{Name: "r3", Value: symbolic.NewMul(S("r0"), S("r0"))},
	}
	eqs := []symbolic.Eq{
		{LHS: symbolic.ForwardStencil(u.Ref), RHS: symbolic.NewAdd(S("r0"), S("r1"), S("r2"), S("r3"))},
		{LHS: symbolic.At(grad.Ref), RHS: symbolic.NewAdd(symbolic.At(grad.Ref), symbolic.NewMul(S("r3"), S("r1")))},
	}
	k, err := CompileNest(assigns, eqs, []int{0, 0}, map[string]*field.Function{"u": &u.Function, "m": m, "grad": grad})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := k.Segments()
	if err != nil {
		t.Fatal(err)
	}
	bd := k.Binding()
	count := func(gradWritten bool) (n int, readsGrad bool) {
		inv := Invariant(segs, bd, func(f *field.Function) bool { return f == &u.Function || gradWritten && f == grad })
		for i, seg := range segs {
			if !inv[i] {
				continue
			}
			n++
			for _, l := range seg.Links {
				for _, o := range [...]Operand{l.X, l.Y, l.Z} {
					if o.Class == ClassF && bd.Fields[bd.Slots[o.Index].Field] == grad {
						readsGrad = true
					}
				}
			}
		}
		return n, readsGrad
	}
	if n, readsGrad := count(true); n != 2 || readsGrad {
		t.Errorf("%d invariant segments (one reading grad: %v), want r0's and r3's", n, readsGrad)
	}
	if n, readsGrad := count(false); n != 3 || !readsGrad {
		t.Errorf("with grad unwritten: %d invariant segments (one reading grad: %v), want r0's, r1's and r3's", n, readsGrad)
	}
}
