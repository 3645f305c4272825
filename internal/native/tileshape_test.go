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
// radius-1 Laplacian of u. The reciprocal's chain reads only parameters,
// so it hoists. Fields are order 4 (two ghost layers), so a box widened by
// one point per side still reads inside them.
func tileNest(t *testing.T, shape []int) confNest {
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
	)
	radius := make([]int, nd)
	for d := range radius {
		radius[d] = 1
	}
	return confNest{
		assigns: assigns,
		eqs:     []symbolic.Eq{{LHS: symbolic.ForwardStencil(uB.Ref), RHS: rhs}},
		radius:  radius,
		fB:      map[string]*field.Function{"u": &uB.Function, "m": mB, "damp": dB},
		fN:      map[string]*field.Function{"u": &uN.Function, "m": mN, "damp": dN},
		outs:    []string{"u"},
		vals:    map[string]float64{"dt": 0.25, "h_x": 1, "h_y": 1, "h_z": 1},
	}
}

// TestConformanceTileShapes holds the per-tile addressing and the steady
// template to the bytecode engine, bit for bit, where a row run is not a
// whole tile: 3-D boxes, whose tiles are one run of rows per plane, and
// rows of odd width, whose n&3 tail runs through the pure-Go executor
// after the 16- and 4-point blocks. Every box spans at least two tiles and
// reaches one ghost point past the owned points. Each runs the full
// template and, primed, the steady one, through the assembly and through
// the pure-Go executor, on one worker and on two.
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
					name := fmt.Sprintf("%dd/tile%d/w%d/primed=%v/assembly=%v", len(shape), opts.TileRows, opts.Pool.Workers(), primed, avx)
					t.Run(name, func(t *testing.T) {
						hasAVX = avx
						n := tileNest(t, shape)
						kB, nk := confCompile(t, n)
						box := confBox(n.fN["u"])
						for d := range box.Lo {
							box.Lo[d]--
							box.Hi[d]++
						}
						if tiles := (box.Hi[0] - box.Lo[0] + opts.TileRows - 1) / opts.TileRows; tiles < 2 {
							t.Fatalf("box %v spans %d tile", box, tiles)
						}
						poolB, err := kB.BindSyms(n.vals)
						if err != nil {
							t.Fatal(err)
						}
						poolN, err := nk.BindSyms(n.vals)
						if err != nil {
							t.Fatal(err)
						}
						if primed {
							u := n.fN["u"]
							if s := nk.Hoist(func(f *field.Function) bool { return f == u }); s != 1 {
								t.Fatalf("%d segments hoist, want the reciprocal's", s)
							}
							nk.Prime(box, poolN, opts)
						}
						for step := 0; step < 3; step++ {
							kB.Run(step, box, poolB, opts)
							nk.Run(step, box, poolN, opts)
							if want := map[bool]part{false: partAll, true: partSteady}[primed]; nk.cur != want {
								t.Fatalf("step %d ran template %d, want %d", step, nk.cur, want)
							}
						}
						confSameFields(t, n, name)
					})
				}
			}
		}
	}
}
