package field

import (
	"reflect"
	"testing"
	"testing/quick"

	"devigo/internal/grid"
)

func mkFunc(t *testing.T, shape []int, so int) *Function {
	t.Helper()
	g := grid.MustNew(shape, nil)
	f, err := NewFunction("f", g, so, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBufferIndexRowMajor(t *testing.T) {
	b := NewBuffer([]int{2, 3, 4})
	if b.Index([]int{0, 0, 1}) != 1 {
		t.Error("last dim must be contiguous")
	}
	if b.Index([]int{1, 0, 0}) != 12 {
		t.Error("first dim stride must be 12")
	}
	b.Set(5, 1, 2, 3)
	if b.At(1, 2, 3) != 5 {
		t.Error("roundtrip failed")
	}
}

func TestBufferIndexPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b := NewBuffer([]int{2, 2})
	b.At(2, 0)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	b := NewBuffer([]int{4, 5})
	for i := range b.Data {
		b.Data[i] = float32(i)
	}
	r := Region{Lo: []int{1, 2}, Hi: []int{3, 5}}
	buf := make([]float32, r.Size())
	n := b.Pack(r, buf)
	if n != 6 {
		t.Fatalf("packed %d, want 6", n)
	}
	want := []float32{7, 8, 9, 12, 13, 14}
	if !reflect.DeepEqual(buf, want) {
		t.Errorf("pack = %v, want %v", buf, want)
	}
	// Unpack into a fresh buffer and compare the region contents.
	b2 := NewBuffer([]int{4, 5})
	b2.Unpack(r, buf)
	out := make([]float32, r.Size())
	b2.Pack(r, out)
	if !reflect.DeepEqual(out, want) {
		t.Errorf("unpack mismatch: %v", out)
	}
}

func TestPackUnpackProperty(t *testing.T) {
	// Property: Unpack(Pack(x)) == x restricted to the region, for random
	// 3-D regions.
	f := func(lo0, lo1, lo2, e0, e1, e2 uint8) bool {
		shape := []int{6, 7, 5}
		b := NewBuffer(shape)
		for i := range b.Data {
			b.Data[i] = float32(i * 3)
		}
		r := Region{Lo: make([]int, 3), Hi: make([]int, 3)}
		los := []uint8{lo0, lo1, lo2}
		exts := []uint8{e0, e1, e2}
		for d := 0; d < 3; d++ {
			r.Lo[d] = int(los[d]) % shape[d]
			r.Hi[d] = r.Lo[d] + int(exts[d])%(shape[d]-r.Lo[d]) + 1
		}
		tmp := make([]float32, r.Size())
		b.Pack(r, tmp)
		b2 := NewBuffer(shape)
		b2.Unpack(r, tmp)
		tmp2 := make([]float32, r.Size())
		b2.Pack(r, tmp2)
		return reflect.DeepEqual(tmp, tmp2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddUnpackAccumulates(t *testing.T) {
	b := NewBuffer([]int{3, 3})
	r := Region{Lo: []int{0, 0}, Hi: []int{2, 2}}
	b.Unpack(r, []float32{1, 1, 1, 1})
	b.AddUnpack(r, []float32{1, 2, 3, 4})
	if b.At(0, 0) != 2 || b.At(1, 1) != 5 {
		t.Errorf("AddUnpack wrong: %v", b.Data)
	}
}

func TestFunctionGeometrySerial(t *testing.T) {
	// Paper Section III-d: SDO k implies a halo of size k per side.
	f := mkFunc(t, []int{20, 16}, 4)
	if !reflect.DeepEqual(f.Halo, []int{4, 4}) {
		t.Errorf("halo = %v", f.Halo)
	}
	if !reflect.DeepEqual(f.FullShape(), []int{28, 24}) {
		t.Errorf("full shape = %v", f.FullShape())
	}
	dom := f.DomainRegion()
	if !reflect.DeepEqual(dom.Lo, []int{4, 4}) || !reflect.DeepEqual(dom.Hi, []int{24, 20}) {
		t.Errorf("domain = %+v", dom)
	}
}

func TestTimeFunctionBuffers(t *testing.T) {
	g := grid.MustNew([]int{4, 4}, nil)
	tf, err := NewTimeFunction("u", g, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Bufs) != 3 {
		t.Fatalf("time order 2 should have 3 buffers, got %d", len(tf.Bufs))
	}
	// Cyclic indexing: Buf(3) == Buf(0); negatives wrap.
	if tf.Buf(3) != tf.Buf(0) || tf.Buf(-1) != tf.Buf(2) {
		t.Error("cyclic buffer indexing broken")
	}
	tf1, err := NewTimeFunction("v", g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf1.Bufs) != 2 {
		t.Fatalf("time order 1 should have 2 buffers (paper: first-order systems need one extra buffer), got %d", len(tf1.Bufs))
	}
	if _, err := NewTimeFunction("w", g, 2, 3, nil); err == nil {
		t.Error("time order 3 should be rejected")
	}
}

func TestFunctionDistributedGeometry(t *testing.T) {
	g := grid.MustNew([]int{10, 10}, nil)
	d, err := grid.NewDecomposition(g, 4, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFunction("m", g, 4, &Config{Decomp: d, Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.LocalShape, []int{5, 5}) {
		t.Errorf("local shape = %v", f.LocalShape)
	}
	if !reflect.DeepEqual(f.Origin, []int{5, 5}) {
		t.Errorf("origin = %v", f.Origin)
	}
}

func TestSendRecvRegionsGeometry(t *testing.T) {
	f := mkFunc(t, []int{10, 10}, 2) // halo 2
	// Send towards +x: last 2 owned rows.
	s := f.SendRegionDepth([]int{1, 0}, nil, nil)
	if s.Lo[0] != 10 || s.Hi[0] != 12 || s.Lo[1] != 2 || s.Hi[1] != 12 {
		t.Errorf("send +x region = %+v", s)
	}
	// Recv from +x: the high halo rows.
	r := f.RecvRegionDepth([]int{1, 0}, nil, nil)
	if r.Lo[0] != 12 || r.Hi[0] != 14 {
		t.Errorf("recv +x region = %+v", r)
	}
	// Send and recv shapes must agree for matching exchanges.
	if !reflect.DeepEqual(s.Shape(), r.Shape()) {
		t.Errorf("send shape %v != recv shape %v", s.Shape(), r.Shape())
	}
	// Diagonal corner: both dims restricted to width-2 slabs.
	c := f.SendRegionDepth([]int{-1, 1}, nil, nil)
	if c.Size() != 4 {
		t.Errorf("corner send size = %d, want 4", c.Size())
	}
}

func TestSendRegionIncludeHaloForBasicSweep(t *testing.T) {
	f := mkFunc(t, []int{10, 10}, 2)
	s := f.SendRegionDepth([]int{1, 0}, []bool{false, true}, nil)
	// Dim 1 spans the full allocation (halo included) for the basic
	// dimension sweep.
	if s.Lo[1] != 0 || s.Hi[1] != 14 {
		t.Errorf("include-halo send region = %+v", s)
	}
}

func TestSendRecvRegionShapesMatchAcrossRanks(t *testing.T) {
	// Property: for any offset, my send region shape equals the matching
	// recv region shape of the neighbour when local shapes agree.
	f := mkFunc(t, []int{9, 7, 5}, 8)
	offsets := [][]int{{1, 0, 0}, {-1, 1, 0}, {1, 1, 1}, {0, -1, 1}, {-1, -1, -1}}
	for _, o := range offsets {
		neg := make([]int, len(o))
		for i := range o {
			neg[i] = -o[i]
		}
		s := f.SendRegionDepth(o, nil, nil)
		r := f.RecvRegionDepth(neg, nil, nil)
		if !reflect.DeepEqual(s.Shape(), r.Shape()) {
			t.Errorf("offset %v: send %v recv %v", o, s.Shape(), r.Shape())
		}
	}
}

func TestSetAtDomain(t *testing.T) {
	f := mkFunc(t, []int{4, 4}, 2)
	f.SetDomain(0, 7, 1, 2)
	if f.AtDomain(0, 1, 2) != 7 {
		t.Error("domain accessor roundtrip failed")
	}
	// The raw buffer location is shifted by the halo (SDO 2 -> halo 2).
	if f.Buf(0).At(3, 4) != 7 {
		t.Error("halo shift wrong")
	}
}
