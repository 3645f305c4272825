package grid

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty shape should fail")
	}
	if _, err := New([]int{4, 0}, nil); err == nil {
		t.Error("zero extent dim should fail")
	}
	if _, err := New([]int{4, 4}, []float64{1}); err == nil {
		t.Error("rank mismatch should fail")
	}
	if _, err := New([]int{2, 2, 2, 2}, nil); err == nil {
		t.Error("4-D should fail")
	}
}

func TestGridSpacing(t *testing.T) {
	g := MustNew([]int{4, 4}, []float64{2, 2})
	// Paper Listing 1: dx = 2/(nx-1) = 2/3.
	want := 2.0 / 3.0
	if got := g.Spacing(0); got != want {
		t.Errorf("spacing = %g, want %g", got, want)
	}
	if g.Points() != 16 {
		t.Errorf("points = %d, want 16", g.Points())
	}
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		n, nd int
		want  []int
	}{
		{16, 3, []int{4, 2, 2}},
		{8, 3, []int{2, 2, 2}},
		{4, 2, []int{2, 2}},
		{6, 2, []int{3, 2}},
		{1, 3, []int{1, 1, 1}},
		{7, 2, []int{7, 1}},
		{12, 3, []int{3, 2, 2}},
	}
	for _, c := range cases {
		got := DimsCreate(c.n, c.nd)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", c.n, c.nd, got, c.want)
		}
	}
}

func TestDecompositionSplitsEvenly(t *testing.T) {
	g := MustNew([]int{10, 7}, nil)
	d, err := NewDecomposition(g, 4, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Dim 0: 10 over 2 -> 5,5. Dim 1: 7 over 2 -> 4,3 (remainder first).
	if lo, hi := d.LocalRange(0, 0); lo != 0 || hi != 5 {
		t.Errorf("dim0 chunk0 = [%d,%d), want [0,5)", lo, hi)
	}
	if lo, hi := d.LocalRange(1, 0); lo != 0 || hi != 4 {
		t.Errorf("dim1 chunk0 = [%d,%d), want [0,4)", lo, hi)
	}
	if lo, hi := d.LocalRange(1, 1); lo != 4 || hi != 7 {
		t.Errorf("dim1 chunk1 = [%d,%d), want [4,7)", lo, hi)
	}
}

func TestDecompositionCustomTopologyFromPaper(t *testing.T) {
	// Paper Fig. 2: (4,2,2), (2,2,4) and (4,4,1) are all valid for 16 ranks.
	g := MustNew([]int{64, 64, 64}, nil)
	for _, topo := range [][]int{{4, 2, 2}, {2, 2, 4}, {4, 4, 1}} {
		d, err := NewDecomposition(g, 16, topo)
		if err != nil {
			t.Fatalf("topology %v: %v", topo, err)
		}
		if d.NProcs() != 16 {
			t.Errorf("topology %v: nprocs = %d", topo, d.NProcs())
		}
	}
	if _, err := NewDecomposition(g, 16, []int{4, 4, 2}); err == nil {
		t.Error("topology product mismatch should fail")
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	g := MustNew([]int{32, 32, 32}, nil)
	d, err := NewDecomposition(g, 12, []int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		if got := d.Rank(d.Coords(r)); got != r {
			t.Errorf("rank %d round-trips to %d", r, got)
		}
	}
	if d.Rank([]int{-1, 0, 0}) != -1 {
		t.Error("out-of-bounds coords should map to -1")
	}
	if d.Rank([]int{3, 0, 0}) != -1 {
		t.Error("out-of-bounds coords should map to -1")
	}
}

func TestDecompositionPartitionsExactly(t *testing.T) {
	// Property: local shapes tile the global grid with no gap or overlap.
	f := func(shapeSeed, procSeed uint8) bool {
		nx := int(shapeSeed%29) + 8
		ny := int(shapeSeed%13) + 8
		np := int(procSeed%6) + 1
		g := MustNew([]int{nx, ny}, nil)
		d, err := NewDecomposition(g, np, nil)
		if err != nil {
			return false
		}
		covered := make([][]bool, nx)
		for i := range covered {
			covered[i] = make([]bool, ny)
		}
		for r := 0; r < np; r++ {
			origin := d.LocalOrigin(r)
			shape := d.LocalShape(r)
			for i := 0; i < shape[0]; i++ {
				for j := 0; j < shape[1]; j++ {
					gi, gj := origin[0]+i, origin[1]+j
					if covered[gi][gj] {
						return false // overlap
					}
					covered[gi][gj] = true
				}
			}
		}
		for i := range covered {
			for j := range covered[i] {
				if !covered[i][j] {
					return false // gap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOwnerRankConsistent(t *testing.T) {
	// Property: the rank reported as owner actually contains the point.
	f := func(px, py uint8) bool {
		g := MustNew([]int{40, 30}, nil)
		d, err := NewDecomposition(g, 6, []int{3, 2})
		if err != nil {
			return false
		}
		p := []int{int(px) % 40, int(py) % 30}
		r := d.OwnerRank(p)
		origin := d.LocalOrigin(r)
		shape := d.LocalShape(r)
		for dim := range p {
			if p[dim] < origin[dim] || p[dim] >= origin[dim]+shape[dim] {
				return false
			}
		}
		// Cross-check global->local conversion.
		coords := d.Coords(r)
		for dim := range p {
			loc, ok := d.GlobalToLocal(dim, coords[dim], p[dim])
			if !ok || loc != p[dim]-origin[dim] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecompositionTooManyProcs(t *testing.T) {
	g := MustNew([]int{4, 4}, nil)
	if _, err := NewDecomposition(g, 8, []int{8, 1}); err == nil {
		t.Error("splitting 4 points over 8 procs should fail")
	}
}

// BoxRows visits every point of the box exactly once, in the box's own
// row-major order, at the point's offset in the global array.
func TestBoxRowsMatchesPointwiseWalk(t *testing.T) {
	for _, tc := range []struct{ gshape, origin, shape []int }{
		{[]int{7}, []int{2}, []int{4}},
		{[]int{5, 6}, []int{1, 2}, []int{3, 4}},
		{[]int{4, 5, 6}, []int{1, 0, 3}, []int{3, 5, 2}},
		{[]int{3, 2, 4, 5}, []int{1, 1, 0, 2}, []int{2, 1, 4, 3}},
		{[]int{4, 5, 6}, []int{1, 0, 3}, []int{3, 0, 2}}, // empty: no rows
	} {
		var got []int // global offset of each box point, in visiting order
		BoxRows(tc.gshape, tc.origin, tc.shape, func(goff, loff, rowLen int) {
			if loff != len(got) {
				t.Errorf("%v: row at local offset %d after %d points", tc, loff, len(got))
			}
			for i := 0; i < rowLen; i++ {
				got = append(got, goff+i)
			}
		})
		var want []int
		var walk func(d, goff int)
		walk = func(d, goff int) {
			if d == len(tc.shape) {
				want = append(want, goff)
				return
			}
			for i := 0; i < tc.shape[d]; i++ {
				walk(d+1, goff*tc.gshape[d]+tc.origin[d]+i)
			}
		}
		walk(0, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: offsets %v, want %v", tc, got, want)
		}
	}
}
