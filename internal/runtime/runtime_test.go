package runtime

import (
	"math"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/symbolic"
)

// buildDiffusion compiles the Listing-1 diffusion update over a given grid.
func buildDiffusion(t *testing.T, g *grid.Grid, so int) (*Kernel, *field.TimeFunction) {
	t.Helper()
	u, err := field.NewTimeFunction("u", g, so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(u.Ref), 1), RHS: symbolic.Laplace(symbolic.At(u.Ref), g.NDims(), so)}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ir.Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: sol}}, g.NDims())
	if err != nil {
		t.Fatal(err)
	}
	k, err := CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{"u": &u.Function})
	if err != nil {
		t.Fatal(err)
	}
	return k, u
}

func fullDomainBox(f *field.Function) Box {
	nd := f.NDims()
	b := Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	copy(b.Hi, f.LocalShape)
	return b
}

func TestKernelMatchesSymbolicEval(t *testing.T) {
	// The VM must agree with the reference symbolic evaluator at interior
	// points.
	g := grid.MustNew([]int{8, 8}, []float64{7, 7})
	k, u := buildDiffusion(t, g, 2)
	// Initialise u[t=0] with a deterministic pattern over the full buffer
	// (domain + halo) so stencils at the domain edge read known values.
	buf := u.Buf(0)
	for i := range buf.Data {
		buf.Data[i] = float32(i%17) * 0.25
	}
	syms, err := k.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(0, fullDomainBox(&u.Function), syms, nil)

	// Reference: evaluate the lowered RHS with symbolic.Eval.
	eqRHS := func(i, j int) float64 {
		env := &symbolic.Env{
			Syms: map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1},
			Field: func(fun *symbolic.FuncRef, timeOff int, off []int) float64 {
				return float64(u.Buf(timeOff).At(i+off[0]+u.Halo[0], j+off[1]+u.Halo[1]))
			},
		}
		eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(u.Ref), 1), RHS: symbolic.Laplace(symbolic.At(u.Ref), 2, 2)}
		sol, _ := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
		return symbolic.Eval(sol, env)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := eqRHS(i, j)
			got := float64(u.AtDomain(1, i, j))
			if math.Abs(got-want) > 1e-5*math.Max(1, math.Abs(want)) {
				t.Fatalf("(%d,%d): VM=%g ref=%g", i, j, got, want)
			}
		}
	}
}

func TestKernelConservesDiffusionMass(t *testing.T) {
	// With periodic-like closed boundaries unavailable, use an interior
	// bump far from the boundary: one explicit Euler step conserves the
	// sum of u over the full buffer (Laplacian weights sum to zero).
	g := grid.MustNew([]int{16, 16}, []float64{15, 15})
	k, u := buildDiffusion(t, g, 2)
	u.SetDomain(0, 8, 8, 8)
	sum0 := 0.0
	for _, v := range u.Buf(0).Data {
		sum0 += float64(v)
	}
	syms, _ := k.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	// Interior box only, so no flux crosses the domain edge.
	b := Box{Lo: []int{4, 4}, Hi: []int{12, 12}}
	k.Run(0, b, syms, nil)
	sum1 := 0.0
	for _, v := range u.Buf(1).Data {
		sum1 += float64(v)
	}
	if math.Abs(sum1-sum0) > 1e-4 {
		t.Errorf("mass not conserved: %g -> %g", sum0, sum1)
	}
}

func TestTiledAndParallelMatchSequential(t *testing.T) {
	g := grid.MustNew([]int{20, 12}, []float64{19, 11})
	mk := func() (*Kernel, *field.TimeFunction) { return buildDiffusion(t, g, 4) }
	init := func(u *field.TimeFunction) {
		buf := u.Buf(0)
		for i := range buf.Data {
			buf.Data[i] = float32((i*7)%23) * 0.5
		}
	}
	symsOf := func(k *Kernel) []float64 {
		s, err := k.BindSyms(map[string]float64{"dt": 0.05, "h_x": 1, "h_y": 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	kSeq, uSeq := mk()
	init(uSeq)
	kSeq.Run(0, fullDomainBox(&uSeq.Function), symsOf(kSeq), nil)

	kTile, uTile := mk()
	init(uTile)
	kTile.Run(0, fullDomainBox(&uTile.Function), symsOf(kTile), &ExecOpts{TileRows: 3})

	kPar, uPar := mk()
	init(uPar)
	p := NewPool(4, 0)
	defer p.Close()
	kPar.Run(0, fullDomainBox(&uPar.Function), symsOf(kPar), &ExecOpts{TileRows: 2, Pool: p})

	for i := range uSeq.Buf(1).Data {
		if uSeq.Buf(1).Data[i] != uTile.Buf(1).Data[i] {
			t.Fatalf("tiled diverges at %d", i)
		}
		if uSeq.Buf(1).Data[i] != uPar.Buf(1).Data[i] {
			t.Fatalf("parallel diverges at %d", i)
		}
	}
}

func TestKernel3D(t *testing.T) {
	g := grid.MustNew([]int{6, 5, 4}, nil)
	k, u := buildDiffusion(t, g, 2)
	u.SetDomain(0, 1, 3, 2, 2)
	syms, _ := k.BindSyms(map[string]float64{"dt": 0.05, "h_x": 1, "h_y": 1, "h_z": 1})
	k.Run(0, fullDomainBox(&u.Function), syms, nil)
	// The bump spreads to the 6 face neighbours with weight dt/h^2.
	want := float32(0.05)
	if got := u.AtDomain(1, 2, 2, 2); got != want {
		t.Errorf("neighbour = %v, want %v", got, want)
	}
	center := u.AtDomain(1, 3, 2, 2)
	if math.Abs(float64(center-(1-6*0.05))) > 1e-6 {
		t.Errorf("centre = %v, want %v", center, 1-6*0.05)
	}
}

func TestKernel1D(t *testing.T) {
	g := grid.MustNew([]int{32}, nil)
	k, u := buildDiffusion(t, g, 2)
	u.SetDomain(0, 1, 16)
	syms, _ := k.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1})
	k.Run(0, fullDomainBox(&u.Function), syms, &ExecOpts{TileRows: 5})
	if got := u.AtDomain(1, 15); got != 0.1 {
		t.Errorf("1-D neighbour = %v, want 0.1", got)
	}
	if got := u.AtDomain(1, 16); got != 0.8 {
		t.Errorf("1-D centre = %v, want 0.8", got)
	}
}

func TestMultiEquationClusterPointOrdering(t *testing.T) {
	// Two equations where the second reads the first's output at the same
	// point: per-point execution order must make the new value visible.
	g := grid.MustNew([]int{4}, nil)
	a, _ := field.NewTimeFunction("a", g, 2, 1, nil)
	bfld, _ := field.NewTimeFunction("b", g, 2, 1, nil)
	eq1 := symbolic.Eq{LHS: symbolic.ForwardStencil(a.Ref), RHS: symbolic.NewAdd(symbolic.At(a.Ref), symbolic.Int(1))}
	eq2 := symbolic.Eq{LHS: symbolic.ForwardStencil(bfld.Ref), RHS: symbolic.NewMul(symbolic.Int(2), symbolic.ForwardStencil(a.Ref))}
	clusters, err := ir.Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("expected fusion, got %d clusters", len(clusters))
	}
	k, err := CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{"a": &a.Function, "b": &bfld.Function})
	if err != nil {
		t.Fatal(err)
	}
	syms, _ := k.BindSyms(nil)
	k.Run(0, fullDomainBox(&a.Function), syms, nil)
	if got := bfld.AtDomain(1, 2); got != 2 {
		t.Errorf("b = %v, want 2 (reads a[t+1] = 1)", got)
	}
}

func TestCompileMissingFieldErrors(t *testing.T) {
	g := grid.MustNew([]int{4}, nil)
	u, _ := field.NewTimeFunction("u", g, 2, 1, nil)
	eq := symbolic.Eq{LHS: symbolic.ForwardStencil(u.Ref), RHS: symbolic.At(u.Ref)}
	clusters, _ := ir.Lower([]symbolic.Eq{eq}, 1)
	if _, err := CompileNest(nil, clusters[0].Eqs, clusters[0].Radius, map[string]*field.Function{}); err == nil {
		t.Error("missing storage should error")
	}
}

func TestBindSymsMissingErrors(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	k, _ := buildDiffusion(t, g, 2)
	if _, err := k.BindSyms(map[string]float64{"dt": 0.1}); err == nil {
		t.Error("missing h_x binding should error")
	}
}

func TestIpow(t *testing.T) {
	cases := []struct {
		v    float64
		e    int
		want float64
	}{
		{2, 3, 8}, {2, -1, 0.5}, {5, 0, 1}, {3, -2, 1.0 / 9},
	}
	for _, c := range cases {
		if got := Ipow(c.v, c.e); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Ipow(%v,%d) = %v, want %v", c.v, c.e, got, c.want)
		}
	}
}

func TestEmptyBoxNoOp(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	k, u := buildDiffusion(t, g, 2)
	syms, _ := k.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	k.Run(0, Box{Lo: []int{4, 4}, Hi: []int{4, 8}}, syms, nil)
	for _, v := range u.Buf(1).Data {
		if v != 0 {
			t.Fatal("empty box must not write")
		}
	}
}

func TestBoxEdgeCases(t *testing.T) {
	// Size/Empty on degenerate boxes.
	cases := []struct {
		box  Box
		size int
	}{
		{Box{Lo: []int{0, 0}, Hi: []int{0, 5}}, 0},    // zero extent
		{Box{Lo: []int{3, 2}, Hi: []int{1, 5}}, 0},    // inverted
		{Box{Lo: []int{0}, Hi: []int{7}}, 7},          // 1-D
		{Box{Lo: []int{-2, -2}, Hi: []int{2, 2}}, 16}, // CIRE-extended
	}
	for _, c := range cases {
		if got := c.box.Size(); got != c.size {
			t.Errorf("Size(%v) = %d, want %d", c.box, got, c.size)
		}
		if c.box.Empty() != (c.size == 0) {
			t.Errorf("Empty(%v) inconsistent with Size", c.box)
		}
	}
}

func TestTileLargerThanOuterDim(t *testing.T) {
	// A TileRows beyond the outer extent must clamp to one tile and still
	// update every point exactly once.
	g := grid.MustNew([]int{5, 9}, nil)
	kBig, uBig := buildDiffusion(t, g, 2)
	kRef, uRef := buildDiffusion(t, g, 2)
	init := func(u *field.TimeFunction) {
		buf := u.Buf(0)
		for i := range buf.Data {
			buf.Data[i] = float32((i*3)%11) * 0.5
		}
	}
	init(uBig)
	init(uRef)
	vals := map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1}
	symsBig, _ := kBig.BindSyms(vals)
	symsRef, _ := kRef.BindSyms(vals)
	kBig.Run(0, fullDomainBox(&uBig.Function), symsBig, &ExecOpts{TileRows: 1 << 20})
	kRef.Run(0, fullDomainBox(&uRef.Function), symsRef, nil)
	for i := range uRef.Buf(1).Data {
		if uBig.Buf(1).Data[i] != uRef.Buf(1).Data[i] {
			t.Fatalf("oversized tile diverges at %d", i)
		}
	}
}

func TestFlopsPerPointMatchesCluster(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	k, _ := buildDiffusion(t, g, 8)
	if k.FlopsPerPoint() < 20 {
		t.Errorf("SDO-8 diffusion flops = %d, suspiciously low", k.FlopsPerPoint())
	}
}
