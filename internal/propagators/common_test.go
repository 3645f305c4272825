package propagators

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
)

// fillConstPerPoint and dampFieldPerPoint are the per-point forms that
// fillConst and dampField replaced with row writes — one SetDomain call
// (two slice allocations) per grid point — kept as the bit-for-bit reference.
func fillConstPerPoint(f *field.Function, v float32) {
	eachDomainPoint(f, func(idx []int) { f.SetDomain(0, v, idx...) })
}

func dampFieldPerPoint(f *field.Function, nbl int, coeff float64) {
	shape := f.Grid.Shape
	eachDomainPoint(f, func(idx []int) {
		depth := 0.0
		for k := range idx {
			g := f.Origin[k] + idx[k]
			dist := g
			if shape[k]-1-g < dist {
				dist = shape[k] - 1 - g
			}
			if dist < nbl {
				if pen := float64(nbl-dist) / float64(nbl); pen > depth {
					depth = pen
				}
			}
		}
		f.SetDomain(0, float32(coeff*depth*depth), idx...)
	})
}

func eachDomainPoint(f *field.Function, fn func(idx []int)) {
	idx := make([]int, f.NDims())
	var rec func(d int)
	rec = func(d int) {
		if d == len(idx) {
			fn(idx)
			return
		}
		for idx[d] = 0; idx[d] < f.LocalShape[d]; idx[d]++ {
			rec(d + 1)
		}
	}
	rec(0)
}

// TestParameterFieldsMatchPerPointForm pins the m and damp buffers the
// acoustic builder fills — halo included, which neither form may touch —
// against the per-point reference, serial and on every rank of a
// decomposition whose chunks are uneven, in 2-D and 3-D.
func TestParameterFieldsMatchPerPointForm(t *testing.T) {
	for _, tc := range []struct {
		shape []int
		ranks int
	}{
		{[]int{23, 30}, 1},
		{[]int{23, 30}, 6},
		{[]int{16, 16}, 16}, // chunks narrower than the layer
		{[]int{14, 17, 19}, 1},
		{[]int{14, 17, 19}, 8},
	} {
		t.Run(fmt.Sprintf("%dd-%dranks", len(tc.shape), tc.ranks), func(t *testing.T) {
			cfg := Config{Shape: tc.shape, SpaceOrder: 4, NBL: 5, Velocity: 1.5}
			if tc.ranks > 1 {
				dec, err := grid.NewDecomposition(grid.MustNew(tc.shape, nil), tc.ranks, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Decomp = dec
			}
			for cfg.Rank = 0; cfg.Rank < tc.ranks; cfg.Rank++ {
				model, err := Acoustic(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for name, fill := range map[string]func(f *field.Function){
					"m":    func(f *field.Function) { fillConstPerPoint(f, float32(1/(1.5*1.5))) },
					"damp": func(f *field.Function) { dampFieldPerPoint(f, cfg.NBL, 0.1) },
				} {
					got := model.Fields[name]
					want, err := field.NewFunction(name, model.Grid, cfg.SpaceOrder, fieldCfg(&cfg, nil))
					if err != nil {
						t.Fatal(err)
					}
					fill(want)
					g, w := got.Buf(0).Data, want.Buf(0).Data
					if len(g) != len(w) {
						t.Fatalf("rank %d %s: %d elements, reference has %d", cfg.Rank, name, len(g), len(w))
					}
					for i := range g {
						if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
							t.Fatalf("rank %d %s[%d] = %v, per-point form gives %v", cfg.Rank, name, i, g[i], w[i])
						}
					}
				}
			}
		})
	}
}

// TestCheckFinite: a run result with a NaN or an infinity anywhere — the
// norm or any receiver sample — is an error naming the model and where;
// a finite one, however large, is not.
func TestCheckFinite(t *testing.T) {
	ok := &RunResult{NT: 3, Norm: math.MaxFloat64, Receivers: [][]float64{{0, -1}, {2, 3}}}
	if err := ok.CheckFinite("acoustic"); err != nil {
		t.Errorf("finite result rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, r := range map[string]*RunResult{
			"norm after 3 steps":       {NT: 3, Norm: bad},
			"receiver trace at step 1": {NT: 3, Norm: 1, Receivers: [][]float64{{0, 0}, {0, bad}}},
		} {
			err := r.CheckFinite("elastic")
			if err == nil {
				t.Errorf("%s %v accepted", name, bad)
				continue
			}
			if want := "elastic " + name; !strings.Contains(err.Error(), want) {
				t.Errorf("%s %v: error %q does not name %q", name, bad, err, want)
			}
		}
	}
}
