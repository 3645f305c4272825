package field

import (
	"fmt"
	"strings"
	"testing"

	"devigo/internal/grid"
)

// Config.HaloWidth below the stencil radius (SpaceOrder/2) must be
// rejected instead of silently under-allocating the ghost zone.
func TestHaloWidthBelowRadiusRejected(t *testing.T) {
	g := grid.MustNew([]int{16, 16}, nil)
	_, err := NewFunction("u", g, 8, &Config{HaloWidth: 3})
	if err == nil {
		t.Fatal("HaloWidth 3 accepted for space order 8 (radius 4)")
	}
	if !strings.Contains(err.Error(), "HaloWidth") {
		t.Errorf("error %q does not mention HaloWidth", err)
	}
	// Exactly the radius is the minimum legal override.
	f, err := NewFunction("u", g, 8, &Config{HaloWidth: 4})
	if err != nil {
		t.Fatalf("HaloWidth 4 (== radius) rejected: %v", err)
	}
	if f.Halo[0] != 4 || f.Halo[1] != 4 {
		t.Errorf("halo = %v, want [4 4]", f.Halo)
	}
	// Wider than the default stays accepted (deep halos).
	if _, err := NewFunction("u", g, 8, &Config{HaloWidth: 24}); err != nil {
		t.Errorf("deep HaloWidth 24 rejected: %v", err)
	}
}

// GrowHalo preserves owned data and prior ghost content at the shifted
// origin, zeroes the newly gained cells, updates the strides, and is
// monotone (never shrinks, idempotent on repeat).
func TestGrowHaloPreservesData(t *testing.T) {
	g := grid.MustNew([]int{6, 5}, nil)
	tf, err := NewTimeFunction("u", g, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &tf.Function
	// Distinct values everywhere in the old allocation of buffer 1,
	// including the old ghost cells.
	old := f.Buf(1)
	for i := range old.Data {
		old.Data[i] = float32(i + 1)
	}
	oldHalo := append([]int(nil), f.Halo...)
	oldVals := map[[2]int]float32{}
	for i := 0; i < old.Shape[0]; i++ {
		for j := 0; j < old.Shape[1]; j++ {
			oldVals[[2]int{i - oldHalo[0], j - oldHalo[1]}] = old.At(i, j)
		}
	}

	f.GrowHalo([]int{5, 4})
	if f.Halo[0] != 5 || f.Halo[1] != 4 {
		t.Fatalf("halo after grow = %v, want [5 4]", f.Halo)
	}
	nb := f.Buf(1)
	if nb.Shape[0] != 6+10 || nb.Shape[1] != 5+8 {
		t.Fatalf("buffer shape after grow = %v, want [16 13]", nb.Shape)
	}
	for i := 0; i < nb.Shape[0]; i++ {
		for j := 0; j < nb.Shape[1]; j++ {
			key := [2]int{i - f.Halo[0], j - f.Halo[1]}
			want, existed := oldVals[key]
			if !existed {
				want = 0
			}
			if got := nb.At(i, j); got != want {
				t.Fatalf("cell %v after grow = %v, want %v", key, got, want)
			}
		}
	}
	// Other buffers reallocated too (all zero before, stay zero).
	if len(f.Buf(0).Data) != len(nb.Data) {
		t.Errorf("buffer 0 not reallocated with buffer 1")
	}

	// Shrinking and same-width requests are no-ops.
	before := f.Buf(1)
	f.GrowHalo([]int{2, 2})
	f.GrowHalo([]int{5, 4})
	if f.Buf(1) != before {
		t.Error("no-op GrowHalo reallocated storage")
	}
	if f.Halo[0] != 5 || f.Halo[1] != 4 {
		t.Errorf("halo changed by no-op grow: %v", f.Halo)
	}
}

// A function's storage is allocated at first use, at the ghost depth in
// force then: GrowHalo on a fresh function allocates nothing, and the
// first Buf allocates every buffer once, at the grown depth, and runs the
// initializers over it, so DOMAIN holds their values and the halos are
// zero. On a function that holds storage Initialize runs at once.
func TestStorageAllocatedAtFirstUse(t *testing.T) {
	g := grid.MustNew([]int{6, 5}, nil)
	tf, err := NewTimeFunction("u", g, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &tf.Function
	calls := 0
	f.Initialize(func(f *Function) {
		calls++
		for i := range f.LocalShape[0] {
			for j := range f.LocalShape[1] {
				f.SetDomain(0, 7, i, j)
			}
		}
	})
	f.GrowHalo([]int{5, 4})
	for bi, b := range f.Bufs {
		if b.Data != nil {
			t.Fatalf("buffer %d allocated before first use", bi)
		}
		if b.Shape[0] != 6+10 || b.Shape[1] != 5+8 || b.Strides[0] != 5+8 {
			t.Fatalf("buffer %d shape %v strides %v after grow, want [16 13] and [13 1]", bi, b.Shape, b.Strides)
		}
	}
	if calls != 0 {
		t.Fatal("initializer ran before first use")
	}
	f.Buf(2)
	f.Buf(1)
	if calls != 1 {
		t.Fatalf("initializer ran %d times, want once", calls)
	}
	dom := f.DomainRegion()
	for bi := range f.Bufs {
		b := f.Buf(bi)
		for i := range b.Shape[0] {
			for j := range b.Shape[1] {
				want := float32(0)
				if bi == 0 && i >= dom.Lo[0] && i < dom.Hi[0] && j >= dom.Lo[1] && j < dom.Hi[1] {
					want = 7
				}
				if got := b.At(i, j); got != want {
					t.Fatalf("buffer %d (%d,%d) = %v, want %v", bi, i, j, got, want)
				}
			}
		}
	}
	f.Initialize(func(*Function) { calls++ })
	if calls != 2 {
		t.Error("Initialize on allocated storage did not run at once")
	}
}

// Depth-parameterized exchange regions: nil depth reproduces the classic
// full-width slabs; explicit depths shrink the bands while keeping them
// adjacent to the owned box.
func TestSendRecvRegionDepth(t *testing.T) {
	g := grid.MustNew([]int{10, 10}, nil)
	f, err := NewFunction("u", g, 4, &Config{HaloWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	// depth nil == full width 6.
	s := f.SendRegionDepth([]int{1, 0}, nil, nil)
	if s.Lo[0] != 6+10-6 || s.Hi[0] != 6+10 {
		t.Errorf("full-width send dim0 = [%d,%d), want [10,16)", s.Lo[0], s.Hi[0])
	}
	// depth 2: a 2-wide band at the owned edge.
	s = f.SendRegionDepth([]int{1, 0}, nil, []int{2, 2})
	if s.Lo[0] != 14 || s.Hi[0] != 16 {
		t.Errorf("depth-2 send dim0 = [%d,%d), want [14,16)", s.Lo[0], s.Hi[0])
	}
	r := f.RecvRegionDepth([]int{1, 0}, nil, []int{2, 2})
	if r.Lo[0] != 16 || r.Hi[0] != 18 {
		t.Errorf("depth-2 recv dim0 = [%d,%d), want [16,18)", r.Lo[0], r.Hi[0])
	}
	r = f.RecvRegionDepth([]int{-1, 0}, nil, []int{2, 2})
	if r.Lo[0] != 4 || r.Hi[0] != 6 {
		t.Errorf("depth-2 recv low dim0 = [%d,%d), want [4,6)", r.Lo[0], r.Hi[0])
	}
	// includeHalo spans the owned extent plus depth per side.
	s = f.SendRegionDepth([]int{0, 1}, []bool{true, false}, []int{2, 2})
	if s.Lo[0] != 4 || s.Hi[0] != 18 {
		t.Errorf("includeHalo depth-2 span dim0 = [%d,%d), want [4,18)", s.Lo[0], s.Hi[0])
	}
}

// TestSlabPanicsOnNonNeighbourOffset reaches Slab's invariant: an offset
// entry outside {-1, 0, 1} names no nearest neighbour.
func TestSlabPanicsOnNonNeighbourOffset(t *testing.T) {
	g := grid.MustNew([]int{10, 10}, nil)
	f, err := NewFunction("u", g, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "offset entries must be -1, 0 or 1") {
			t.Errorf("SendRegionDepth with offset 2 recovered %v, want the offset panic", r)
		}
	}()
	f.SendRegionDepth([]int{2, 0}, nil, nil)
}
