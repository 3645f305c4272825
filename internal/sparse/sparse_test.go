package sparse

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

func TestNewValidatesCoords(t *testing.T) {
	g := grid.MustNew([]int{10, 10}, []float64{9, 9})
	if _, err := New("src", g, [][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := New("src", g, [][]float64{{-1, 0}}); err == nil {
		t.Error("out-of-extent should fail")
	}
	if _, err := New("src", g, [][]float64{{4.5, 3.3}}); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	// NaN compares false against both bounds: it must be rejected by name,
	// with the point and dimension, not pass as inside the extent.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := New("src", g, [][]float64{{4.5, 3.3}, {2, bad}})
		if err == nil || !strings.Contains(err.Error(), "point 1 coordinate 1") {
			t.Errorf("coordinate %g: err = %v, want point 1 coordinate 1 rejected", bad, err)
		}
	}
}

func TestSupportWeightsSumToOne(t *testing.T) {
	g := grid.MustNew([]int{10, 10, 10}, []float64{9, 9, 9})
	f := func(x, y, z uint8) bool {
		coords := []float64{float64(x) / 255 * 9, float64(y) / 255 * 9, float64(z) / 255 * 9}
		s, err := New("p", g, [][]float64{coords})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, c := range s.support(0) {
			sum += c.weight
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSupportAlignedPointSingleCorner(t *testing.T) {
	g := grid.MustNew([]int{5, 5}, []float64{4, 4})
	s, _ := New("p", g, [][]float64{{2, 3}})
	cs := s.support(0)
	if len(cs) != 1 || cs[0].weight != 1 || cs[0].idx[0] != 2 || cs[0].idx[1] != 3 {
		t.Errorf("aligned point support = %+v", cs)
	}
}

func TestInjectSerialBilinear(t *testing.T) {
	g := grid.MustNew([]int{5, 5}, []float64{4, 4})
	f, _ := field.NewFunction("u", g, 2, nil)
	s, _ := New("src", g, [][]float64{{1.5, 2.25}})
	if err := s.Inject(f, 0, []float32{8}); err != nil {
		t.Fatal(err)
	}
	// Weights: x frac 0.5, y frac 0.25 over corners (1,2),(2,2),(1,3),(2,3).
	check := func(i, j int, w float64) {
		if got := f.AtDomain(0, i, j); math.Abs(float64(got)-8*w) > 1e-6 {
			t.Errorf("(%d,%d) = %v, want %v", i, j, got, 8*w)
		}
	}
	check(1, 2, 0.5*0.75)
	check(2, 2, 0.5*0.75)
	check(1, 3, 0.5*0.25)
	check(2, 3, 0.5*0.25)
	// Total mass injected equals the value.
	sum := 0.0
	for _, v := range f.Bufs[0].Data {
		sum += float64(v)
	}
	if math.Abs(sum-8) > 1e-5 {
		t.Errorf("total injected = %v, want 8", sum)
	}
}

func TestInterpolateLinearFieldExact(t *testing.T) {
	// Bilinear interpolation reproduces affine fields exactly.
	g := grid.MustNew([]int{8, 8}, []float64{7, 7})
	f, _ := field.NewFunction("u", g, 2, nil)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			f.SetDomain(0, float32(2*i+3*j+1), i, j)
		}
	}
	s, _ := New("rec", g, [][]float64{{1.5, 2.75}, {0, 0}, {6.99, 6.99}})
	got := s.Interpolate(f, 0, nil)
	want := []float64{2*1.5 + 3*2.75 + 1, 1, 2*6.99 + 3*6.99 + 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-4 {
			t.Errorf("point %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInjectExactlyOnceAcrossRanks(t *testing.T) {
	// Paper Fig. 3: points shared by 2 or 4 ranks must be injected exactly
	// once globally. Compare the distributed global sum with serial.
	g := grid.MustNew([]int{8, 8}, []float64{7, 7})
	pts := [][]float64{
		{2.0, 2.0},  // A-like: interior of rank 0
		{3.5, 2.0},  // B-like: on the boundary row shared by two ranks
		{3.5, 3.5},  // C-like: the four-rank corner
		{2.0, 3.5},  // D-like
		{1.25, 6.1}, // generic off-grid
	}
	vals := []float32{1, 2, 4, 8, 16}

	// Serial reference sum.
	fS, _ := field.NewFunction("u", g, 2, nil)
	sS, _ := New("src", g, pts)
	if err := sS.Inject(fS, 0, vals); err != nil {
		t.Fatal(err)
	}
	serialSum := 0.0
	for _, v := range fS.Bufs[0].Data {
		serialSum += float64(v)
	}

	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		dec, _ := grid.NewDecomposition(g, 4, []int{2, 2})
		f, err := field.NewFunction("u", g, 2, &field.Config{Decomp: dec, Rank: c.Rank()})
		if err != nil {
			t.Error(err)
			return
		}
		s, _ := New("src", g, pts)
		if err := s.Inject(f, 0, vals); err != nil {
			t.Error(err)
			return
		}
		// Sum only DOMAIN cells (halo untouched anyway) and all-reduce.
		dom := f.DomainRegion()
		tmp := make([]float32, dom.Size())
		f.Bufs[0].Pack(dom, tmp)
		local := 0.0
		for _, v := range tmp {
			local += float64(v)
		}
		total := c.AllreduceScalar(local, mpi.OpSum)
		if math.Abs(total-serialSum) > 1e-5 {
			t.Errorf("rank %d: distributed sum %v != serial %v", c.Rank(), total, serialSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateMatchesSerialAcrossRanks(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, []float64{7, 7})
	fill := func(f *field.Function) {
		for i := 0; i < f.LocalShape[0]; i++ {
			for j := 0; j < f.LocalShape[1]; j++ {
				gi, gj := f.Origin[0]+i, f.Origin[1]+j
				f.SetDomain(0, float32(math.Sin(float64(gi))*3+float64(gj)), i, j)
			}
		}
	}
	pts := [][]float64{{3.5, 3.5}, {1.1, 5.9}, {6.5, 0.5}}
	fS, _ := field.NewFunction("u", g, 2, nil)
	fill(fS)
	sS, _ := New("rec", g, pts)
	want := sS.Interpolate(fS, 0, nil)

	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		dec, _ := grid.NewDecomposition(g, 4, []int{2, 2})
		f, _ := field.NewFunction("u", g, 2, &field.Config{Decomp: dec, Rank: c.Rank()})
		fill(f)
		s, _ := New("rec", g, pts)
		got := s.Interpolate(f, 0, c)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5 {
				t.Errorf("rank %d point %d: %v, want %v", c.Rank(), i, got[i], want[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFig3_SparseOwnership(t *testing.T) {
	// A 2x2 decomposition of an 8x8 grid: chunk boundary at index 4, i.e.
	// physical coordinate 4.0 when extent is 7 (spacing 1).
	g := grid.MustNew([]int{8, 8}, []float64{7, 7})
	dec, err := grid.NewDecomposition(g, 4, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := [][]float64{
		{1.5, 1.5}, // A: strictly inside rank 0
		{3.5, 1.5}, // B: cell straddles ranks 0 and 2
		{3.5, 3.5}, // C: cell corner shared by all four ranks
		{1.5, 3.5}, // D: cell straddles ranks 0 and 1
	}
	s, _ := New("pts", g, pts)
	// The involved ranks of a point: the owners of its support.
	owners := make([][]int, s.NPoints())
	for p := range owners {
		for _, c := range s.support(p) {
			if r := dec.OwnerRank(c.idx); !slices.Contains(owners[p], r) {
				owners[p] = append(owners[p], r)
			}
		}
		sort.Ints(owners[p])
	}
	want := [][]int{{0}, {0, 2}, {0, 1, 2, 3}, {0, 1}}
	for p := range want {
		if len(owners[p]) != len(want[p]) {
			t.Errorf("point %d owners = %v, want %v", p, owners[p], want[p])
			continue
		}
		for i := range want[p] {
			if owners[p][i] != want[p][i] {
				t.Errorf("point %d owners = %v, want %v", p, owners[p], want[p])
				break
			}
		}
	}
}

func TestRickerWavelet(t *testing.T) {
	f0, t0, dt := 10.0, 0.1, 0.001
	nt := 200
	wv := RickerWavelet(f0, t0, dt, nt)
	// Peak of exactly 1 at t = t0.
	peakIdx := 0
	for i, v := range wv {
		if v > wv[peakIdx] {
			peakIdx = i
		}
	}
	if peakIdx != 100 {
		t.Errorf("peak at sample %d, want 100", peakIdx)
	}
	if math.Abs(float64(wv[100])-1) > 1e-6 {
		t.Errorf("peak value %v, want 1", wv[100])
	}
	// The Ricker wavelet has (near-)zero mean.
	sum := 0.0
	for _, v := range wv {
		sum += float64(v)
	}
	if math.Abs(sum/float64(nt)) > 1e-3 {
		t.Errorf("mean too large: %g", sum/float64(nt))
	}
}

func TestInjectWrongLengthErrors(t *testing.T) {
	g := grid.MustNew([]int{4, 4}, nil)
	f, _ := field.NewFunction("u", g, 2, nil)
	s, _ := New("src", g, [][]float64{{1, 1}})
	if err := s.Inject(f, 0, []float32{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}
