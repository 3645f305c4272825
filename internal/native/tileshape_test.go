package native

import (
	"fmt"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// tileNest is a damped-wave update on shape: a per-point reciprocal of
// the parameters m and damp, drained into a register row, scales a
// radius-1 Laplacian of u, and a third parameter q scales u once more
// (q·u), so the step itself reads a parameter. The reciprocal's chain
// reads only parameters, so it hoists. Fields are order 4, so a box
// widened by one point per side still reads inside them. grow names the
// field whose ghost region GrowHalo widens to six points after
// allocation, or "": grown, its rows lie another pitch apart than the
// others'.
func tileNest(t *testing.T, shape []int, grow string) confNest {
	t.Helper()
	g := grid.MustNew(shape, nil)
	nd := len(shape)
	uB, uN := confTimeFn(t, "u", g, 4)
	param := func(name string, scale float32) *field.Function {
		f, err := field.NewFunction(name, g, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Bufs[0].Data {
			f.Bufs[0].Data[i] = scale * (1 + float32(i%5)*0.25)
		}
		return f
	}
	mB, mN := param("m", 0.5), param("m", 0.5)
	dB, dN := param("damp", 0.125), param("damp", 0.125)
	qB, qN := param("q", 0.0625), param("q", 0.0625)
	ut := symbolic.At(uB.Ref)
	dt := symbolic.S("dt")
	assigns := []symbolic.Assignment{{Name: "r0", Value: symbolic.Pow{Base: symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(mB.Ref), symbolic.Pow{Base: dt, Exp: -2}),
		symbolic.NewMul(symbolic.At(dB.Ref), symbolic.Pow{Base: dt, Exp: -1}),
	), Exp: -1}}}
	rhs := symbolic.NewAdd(
		symbolic.NewMul(symbolic.Int(2), ut),
		symbolic.Neg(symbolic.Backward(uB.Ref)),
		symbolic.NewMul(symbolic.S("r0"), symbolic.Collect(symbolic.ExpandDerivatives(symbolic.Laplace(ut, nd, 2)))),
		symbolic.NewMul(symbolic.At(qB.Ref), ut),
	)
	radius := make([]int, nd)
	for d := range radius {
		radius[d] = 1
	}
	n := confNest{
		assigns: assigns,
		eqs:     []symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: rhs}},
		radius:  radius,
		fB:      map[string]*field.Function{"u": &uB.Function, "m": mB, "damp": dB, "q": qB},
		fN:      map[string]*field.Function{"u": &uN.Function, "m": mN, "damp": dN, "q": qN},
		outs:    []string{"u"},
		vals:    map[string]float64{"dt": 0.25, "h_x": 1, "h_y": 1, "h_z": 1},
	}
	if grow != "" {
		halo := make([]int, nd)
		for d := range halo {
			halo[d] = 6
		}
		n.fB[grow].GrowHalo(halo)
		n.fN[grow].GrowHalo(halo)
	}
	return n
}

// TestConformanceTileShapes holds the per-run addressing and the steady
// template to the bytecode engine and the interpreter, bit for bit, where
// it can go wrong: 3-D boxes, whose tiles are one run of rows per plane;
// rows of odd width, whose n&3 tail the pure-Go executor runs after the
// 16- and 4-point blocks, at the row's nonzero offset from the run's first
// row; and, beside the base case of each shape, a field grown with
// GrowHalo — the output u (so the other buffers' table words step below
// them as the rows advance), q, which the steady run reads, or m, which
// only the priming sweep reads when primed — and a run of one row. Every
// box but a 2-D one-row box spans at least two tiles of the team of two
// and reaches one ghost point past the owned points; a team of one takes
// the box as one tile. Each runs the full template and, primed, the steady
// one, through the assembly and the pure-Go executor. It also pins the
// operands corrected between rows: one per operand of a buffer whose
// pitch is not the output's, one per hoisted row, none else.
func TestConformanceTileShapes(t *testing.T) {
	pair := runtime.NewPool(2, 0)
	defer pair.Close()
	executors, restore := confExecutors()
	defer restore()
	for _, shape := range [][]int{{19, 37}, {11, 5, 23}} {
		if w := shape[len(shape)-1] + 2; !takesEveryWidth(w) {
			t.Fatalf("shape %v: rows of %d points skip a block width", shape, w)
		}
		for _, opts := range []*runtime.ExecOpts{{TileRows: runtime.TileRows}, {TileRows: 3, Pool: pair}} {
			for _, primed := range []bool{false, true} {
				for _, avx := range executors {
					for _, variant := range []string{"", "grow=u", "grow=q", "grow=m", "onerow"} {
						name := fmt.Sprintf("%dd/tile%d/w%d/primed=%v/assembly=%v", len(shape), opts.TileRows, opts.Pool.Workers(), primed, avx)
						if variant != "" {
							name += "/" + variant
						}
						t.Run(name, func(t *testing.T) {
							hasAVX = avx
							tileShape(t, shape, opts, primed, variant)
						})
					}
				}
			}
		}
	}
}

func tileShape(t *testing.T, shape []int, opts *runtime.ExecOpts, primed bool, variant string) {
	grow, oneRow := "", variant == "onerow"
	if len(variant) > 5 && variant[:5] == "grow=" {
		grow = variant[5:]
	}
	n, ref := tileNest(t, shape, grow), tileNest(t, shape, grow)
	kB, nk := confCompile(t, n)
	kI, err := runtime.CompileNest(ref.assigns, ref.eqs, ref.radius, ref.fB)
	if err != nil {
		t.Fatal(err)
	}
	nd := len(shape)
	box := confBox(n.fN["u"])
	for d := range box.Lo {
		box.Lo[d]--
		box.Hi[d]++
	}
	if oneRow {
		box.Hi[nd-2] = box.Lo[nd-2] + 1
	}
	if tiles := (box.Hi[0] - box.Lo[0] + opts.TileRows - 1) / opts.TileRows; tiles < 2 && !(oneRow && nd == 2) {
		t.Fatalf("box %v spans %d tile", box, tiles)
	}
	pools := make([][]float64, 3)
	for i, k := range []runtime.ExecKernel{kB, nk, kI} {
		if pools[i], err = k.BindSyms(n.vals); err != nil {
			t.Fatal(err)
		}
	}
	if primed {
		u := n.fN["u"]
		if s := nk.Hoist(func(f *field.Function) bool { return f == u }); s != 1 {
			t.Fatalf("%d segments hoist, want the reciprocal's", s)
		}
		nk.Prime(box, pools[1], opts)
	}
	want := map[bool]part{false: partAll, true: partSteady}[primed]
	for step := 0; step < 3; step++ {
		kB.Run(step, box, pools[0], opts)
		nk.Run(step, box, pools[1], opts)
		kI.Run(step, box, pools[2], opts)
		if nk.cur != want {
			t.Fatalf("step %d ran template %d, want %d", step, nk.cur, want)
		}
	}
	confSameFields(t, n, "native vs bytecode")
	confSameFields(t, confNest{fB: ref.fB, fN: n.fN, outs: n.outs}, "native vs interpreter")

	var skews [3]int // field operands, stores, hoisted rows
	switch grow {
	case "u": // the reads of q and, inline, of m and damp
		skews[0] = 3
		if primed {
			skews[0] = 1
		}
	case "q":
		skews[0] = 1
	case "m":
		if !primed {
			skews[0] = 1
		}
	}
	if primed {
		skews[2] = 1
	}
	if f, s, h := nk.skewsOf(want, box); [3]int{f, s, h} != skews {
		t.Errorf("template %d corrects %v (fields, stores, hoisted rows) between rows, want %v", want, [3]int{f, s, h}, skews)
	}
	if grow == "m" && primed {
		if f, _, _ := nk.skewsOf(partPrime, box); f != 1 {
			t.Errorf("the priming sweep corrects %d field operands between rows, want the grown m's 1", f)
		}
	}
}
