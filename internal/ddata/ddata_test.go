package ddata

import (
	"reflect"
	"testing"
	"testing/quick"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

func mkArray(t *testing.T, c *mpi.Comm, shape []int, topo []int) *Array {
	t.Helper()
	g := grid.MustNew(shape, nil)
	d, err := grid.NewDecomposition(g, c.Size(), topo)
	if err != nil {
		t.Fatal(err)
	}
	f, err := field.NewFunction("u", g, 2, &field.Config{Decomp: d, Rank: c.Rank()})
	if err != nil {
		t.Fatal(err)
	}
	return New(f, d, c.Rank())
}

func TestListing2_DistributedSlice(t *testing.T) {
	// Paper Listing 2: u.data[1:-1, 1:-1] = 1 on a 4x4 grid over 4 ranks.
	want := map[int]string{
		0: "[[0.00 0.00]\n [0.00 1.00]]",
		1: "[[0.00 0.00]\n [1.00 0.00]]",
		2: "[[0.00 1.00]\n [0.00 0.00]]",
		3: "[[1.00 0.00]\n [0.00 0.00]]",
	}
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{4, 4}, []int{2, 2})
		if err := a.SetSlice(0, []Slice{SliceRange(1, -1), SliceRange(1, -1)}, 1); err != nil {
			t.Error(err)
			return
		}
		if got := a.LocalString(0); got != want[c.Rank()] {
			t.Errorf("rank %d local view:\n%s\nwant:\n%s", c.Rank(), got, want[c.Rank()])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSliceNormalisation(t *testing.T) {
	s := SliceRange(1, -1)
	lo, hi, err := s.normalize(4)
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("normalize = %d,%d,%v", lo, hi, err)
	}
	if _, _, err := SliceRange(3, 1).normalize(4); err == nil {
		t.Error("reversed slice should error")
	}
	if _, _, err := SliceRange(0, 9).normalize(4); err == nil {
		t.Error("overlong slice should error")
	}
	lo, hi, _ = SliceAll().normalize(7)
	if lo != 0 || hi != 7 {
		t.Error("SliceAll wrong")
	}
}

func TestSetSliceWrongRank(t *testing.T) {
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{4, 4}, []int{1, 1})
		if err := a.SetSlice(0, []Slice{SliceAll()}, 1); err == nil {
			t.Error("dimension count mismatch should error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtGlobalOwnership(t *testing.T) {
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{4, 4}, []int{2, 2})
		_ = a.SetFunc(0, []Slice{SliceAll(), SliceAll()}, func(g []int) float32 {
			return float32(g[0]*10 + g[1])
		})
		owned := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if v, ok := a.At(0, []int{i, j}); ok {
					owned++
					if v != float32(i*10+j) {
						t.Errorf("rank %d: at(%d,%d) = %v", c.Rank(), i, j, v)
					}
				}
			}
		}
		if owned != 4 {
			t.Errorf("rank %d owns %d points, want 4", c.Rank(), owned)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherReassemblesGlobal(t *testing.T) {
	w := mpi.NewWorld(6)
	var got []float32
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{6, 5}, []int{3, 2})
		_ = a.SetFunc(0, []Slice{SliceAll(), SliceAll()}, func(g []int) float32 {
			return float32(g[0]*100 + g[1])
		})
		out := a.Gather(c, 0, 0)
		if c.Rank() == 0 {
			got = out
		} else if out != nil {
			t.Errorf("rank %d should get nil from Gather", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 30)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			want[i*5+j] = float32(i*100 + j)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gather = %v\nwant %v", got, want)
	}
}

// A point-to-point message in flight must not be taken for a rank's
// chunk: Gather and Scatter are collectives, whatever tags user traffic
// uses.
func TestGatherScatterIgnoreUserMessages(t *testing.T) {
	const gatherTag, scatterTag = 1<<20 + 1, 1<<21 + 1
	w := mpi.NewWorld(4)
	var got []float32
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{6, 6}, []int{2, 2})
		chunk := 1
		for _, n := range a.Decomp.LocalShape(1) {
			chunk *= n
		}
		decoy := make([]float32, chunk)
		for i := range decoy {
			decoy[i] = -1
		}
		if c.Rank() == 1 {
			c.Send(0, gatherTag, decoy)
		}
		_ = a.SetFunc(0, []Slice{SliceAll(), SliceAll()}, func(g []int) float32 {
			return float32(g[0]*10 + g[1])
		})
		out := a.Gather(c, 0, 0)
		if c.Rank() == 0 {
			got = out
			buf := make([]float32, chunk)
			if n := c.Recv(1, gatherTag, buf); n != chunk || buf[0] != -1 {
				t.Errorf("user message after Gather: %d values %v, want the decoy", n, buf[:n])
			}
			c.Send(1, scatterTag, decoy)
		}
		a.Scatter(c, 0, 0, out)
		if c.Rank() == 1 {
			buf := make([]float32, chunk)
			if n := c.Recv(0, scatterTag, buf); n != chunk || buf[0] != -1 {
				t.Errorf("user message after Scatter: %d values %v, want the decoy", n, buf[:n])
			}
		}
		if back := a.Gather(c, 0, 0); c.Rank() == 0 && !reflect.DeepEqual(back, out) {
			t.Errorf("scatter took a user message for a chunk:\n%v\nwant %v", back, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 36)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want[i*6+j] = float32(i*10 + j)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gather = %v\nwant %v", got, want)
	}
}

func TestGatherSerial(t *testing.T) {
	g := grid.MustNew([]int{3, 3}, nil)
	f, _ := field.NewFunction("u", g, 2, nil)
	a := New(f, nil, 0)
	_ = a.SetSlice(0, []Slice{SliceRange(0, 3), SliceRange(0, 3)}, 2)
	out := a.Gather(nil, 0, 0)
	if len(out) != 9 || out[4] != 2 {
		t.Errorf("serial gather = %v", out)
	}
}

func TestSliceWritesExactlyOnceAcrossRanks(t *testing.T) {
	// Property: for random slices, summing each rank's written cells over
	// a gather equals the slice volume (every cell written exactly once,
	// no rank double-writes).
	f := func(lo0, hi0, lo1, hi1 uint8) bool {
		l0, h0 := int(lo0%8), int(lo0%8)+int(hi0%(9-lo0%8))
		l1, h1 := int(lo1%8), int(lo1%8)+int(hi1%(9-lo1%8))
		w := mpi.NewWorld(4)
		var sum float64
		err := w.Run(func(c *mpi.Comm) {
			g := grid.MustNew([]int{8, 8}, nil)
			d, _ := grid.NewDecomposition(g, 4, []int{2, 2})
			fn, _ := field.NewFunction("u", g, 2, &field.Config{Decomp: d, Rank: c.Rank()})
			a := New(fn, d, c.Rank())
			_ = a.SetSlice(0, []Slice{SliceRange(l0, h0), SliceRange(l1, h1)}, 1)
			out := a.Gather(c, 0, 0)
			if c.Rank() == 0 {
				for _, v := range out {
					sum += float64(v)
				}
			}
		})
		if err != nil {
			return false
		}
		return sum == float64((h0-l0)*(h1-l1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSetFuncGlobalCoordinates(t *testing.T) {
	// Values must be a function of *global* coordinates regardless of the
	// decomposition used.
	for _, topo := range [][]int{{1, 4}, {4, 1}, {2, 2}} {
		w := mpi.NewWorld(4)
		var got []float32
		err := w.Run(func(c *mpi.Comm) {
			a := mkArray(t, c, []int{8, 8}, topo)
			_ = a.SetFunc(0, []Slice{SliceAll(), SliceAll()}, func(g []int) float32 {
				return float32(g[0] - g[1])
			})
			out := a.Gather(c, 0, 0)
			if c.Rank() == 0 {
				got = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if got[i*8+j] != float32(i-j) {
					t.Fatalf("topology %v: (%d,%d) = %v, want %d", topo, i, j, got[i*8+j], i-j)
				}
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		a := mkArray(t, c, []int{6, 6}, []int{2, 2})
		var data []float32
		if c.Rank() == 0 {
			data = make([]float32, 36)
			for i := range data {
				data[i] = float32(i) * 1.5
			}
		}
		a.Scatter(c, 0, 0, data)
		out := a.Gather(c, 0, 0)
		if c.Rank() == 0 {
			if !reflect.DeepEqual(out, data) {
				t.Errorf("scatter/gather roundtrip failed:\n%v\n%v", out, data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterSerial(t *testing.T) {
	g := grid.MustNew([]int{3, 3}, nil)
	f, _ := field.NewFunction("u", g, 2, nil)
	a := New(f, nil, 0)
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	a.Scatter(nil, 0, 0, data)
	if f.AtDomain(0, 1, 1) != 5 {
		t.Errorf("serial scatter centre = %v", f.AtDomain(0, 1, 1))
	}
}
