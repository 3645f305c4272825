package halo

import (
	"fmt"
	"reflect"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// distField creates the rank-local portion of a global field whose value at
// global point (i,j,...) is enc(i,j,...), with DOMAIN filled and halo zeroed.
func distField(t *testing.T, c *mpi.Comm, g *grid.Grid, topo []int, so int) (*field.Function, *grid.Decomposition, *mpi.CartComm) {
	t.Helper()
	d, err := grid.NewDecomposition(g, c.Size(), topo)
	if err != nil {
		t.Fatal(err)
	}
	cart, err := mpi.CartCreate(c, d.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := field.NewFunction("u", g, so, &field.Config{Decomp: d, Rank: c.Rank()})
	if err != nil {
		t.Fatal(err)
	}
	fillDomain(f)
	return f, d, cart
}

// enc encodes global coordinates into a unique float32.
func enc(coords []int) float32 {
	v := 0
	for _, c := range coords {
		v = v*1000 + c + 1
	}
	return float32(v)
}

func fillDomain(f *field.Function) {
	nd := f.NDims()
	idx := make([]int, nd)
	var rec func(d int)
	rec = func(d int) {
		if d == nd {
			g := make([]int, nd)
			for k := 0; k < nd; k++ {
				g[k] = f.Origin[k] + idx[k]
			}
			f.SetDomain(0, enc(g), idx...)
			return
		}
		for idx[d] = 0; idx[d] < f.LocalShape[d]; idx[d]++ {
			rec(d + 1)
		}
	}
	rec(0)
}

// verifyHalo checks that every halo cell corresponding to a point inside
// the global grid holds the correct encoded value. Returns the number of
// verified cells.
func verifyHalo(t *testing.T, f *field.Function, rank int, mode string) int {
	t.Helper()
	nd := f.NDims()
	buf := f.Buf(0)
	full := f.FullShape()
	dom := f.DomainRegion()
	idx := make([]int, nd)
	verified := 0
	var rec func(d int)
	rec = func(d int) {
		if d == nd {
			inDomain := true
			g := make([]int, nd)
			inGrid := true
			for k := 0; k < nd; k++ {
				if idx[k] < dom.Lo[k] || idx[k] >= dom.Hi[k] {
					inDomain = false
				}
				g[k] = f.Origin[k] + idx[k] - f.Halo[k]
				if g[k] < 0 || g[k] >= f.Grid.Shape[k] {
					inGrid = false
				}
			}
			if inDomain || !inGrid {
				return
			}
			want := enc(g)
			if got := buf.At(idx...); got != want {
				t.Errorf("%s rank %d: halo at %v (global %v) = %v, want %v", mode, rank, idx, g, got, want)
			}
			verified++
			return
		}
		for idx[d] = 0; idx[d] < full[d]; idx[d]++ {
			rec(d + 1)
		}
	}
	rec(0)
	return verified
}

func testExchangeFillsHalo(t *testing.T, mode Mode, shape, topo []int, so int) {
	nprocs := 1
	for _, v := range topo {
		nprocs *= v
	}
	g := grid.MustNew(shape, nil)
	w := mpi.NewWorld(nprocs)
	err := w.Run(func(c *mpi.Comm) {
		f, _, cart := distField(t, c, g, topo, so)
		ex := NewDepth(mode, cart, f, 0, nil)
		ex.Exchange(0)
		n := verifyHalo(t, f, c.Rank(), mode.String())
		if n == 0 && nprocs > 1 {
			t.Errorf("%s rank %d: no halo cells verified", mode, c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeFillsHalo2D(t *testing.T) {
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			testExchangeFillsHalo(t, mode, []int{12, 12}, []int{2, 2}, 4)
		})
	}
}

func TestExchangeFillsHalo3D(t *testing.T) {
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			testExchangeFillsHalo(t, mode, []int{12, 12, 12}, []int{2, 2, 2}, 4)
		})
	}
}

func TestExchangeCornersIncluded(t *testing.T) {
	// 3x3 topology: the centre rank has all 8 neighbours; corner halo
	// points must be correct for every mode (basic fills them via the
	// dimension sweep, diagonal/full via corner messages).
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			testExchangeFillsHalo(t, mode, []int{12, 12}, []int{3, 3}, 4)
		})
	}
}

func TestExchangeUnevenDecomposition(t *testing.T) {
	// 13 points over 3 chunks -> 5,4,4: exercises remainder handling.
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			testExchangeFillsHalo(t, mode, []int{13, 11}, []int{3, 2}, 4)
		})
	}
}

func TestExchangeRepeatedSteps(t *testing.T) {
	// Repeated exchanges with changing data must deliver the latest
	// values (FIFO per tag across "timesteps").
	g := grid.MustNew([]int{8, 8}, nil)
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		f, _, cart := distField(t, c, g, []int{2, 2}, 2)
		ex := NewDepth(ModeDiagonal, cart, f, 0, nil)
		for step := 0; step < 3; step++ {
			// Scale the domain values by step+1.
			dom := f.DomainRegion()
			buf := f.Buf(0)
			tmp := make([]float32, dom.Size())
			buf.Pack(dom, tmp)
			fillDomain(f)
			buf.Pack(dom, tmp)
			for i := range tmp {
				tmp[i] *= float32(step + 1)
			}
			buf.Unpack(dom, tmp)
			ex.Exchange(0)
		}
		// After the last exchange, halo values must be 3x the encoding.
		nd := f.NDims()
		full := f.FullShape()
		dom := f.DomainRegion()
		buf := f.Buf(0)
		for i := 0; i < full[0]; i++ {
			for j := 0; j < full[1]; j++ {
				inDom := i >= dom.Lo[0] && i < dom.Hi[0] && j >= dom.Lo[1] && j < dom.Hi[1]
				gi, gj := f.Origin[0]+i-f.Halo[0], f.Origin[1]+j-f.Halo[1]
				if inDom || gi < 0 || gi >= 8 || gj < 0 || gj >= 8 {
					continue
				}
				want := 3 * enc([]int{gi, gj})
				if got := buf.At(i, j); got != want {
					t.Errorf("rank %d: step-3 halo at (%d,%d) = %v, want %v", c.Rank(), i, j, got, want)
				}
			}
		}
		_ = nd
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableI_ModeCharacteristics(t *testing.T) {
	// Paper Table I: in 3-D an interior rank issues 6 messages in basic
	// mode and 26 in diagonal and full modes.
	cases := []struct {
		mode Mode
		want int
	}{
		{ModeBasic, 6},
		{ModeDiagonal, 26},
		{ModeFull, 26},
	}
	g := grid.MustNew([]int{27, 27, 27}, nil)
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			w := mpi.NewWorld(27)
			err := w.Run(func(c *mpi.Comm) {
				f, _, cart := distField(t, c, g, []int{3, 3, 3}, 2)
				ex := NewDepth(tc.mode, cart, f, 0, nil)
				ex.Exchange(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			// Rank 13 is the centre of the 3x3x3 topology.
			st := w.StatsSnapshot()
			if got := st[13].MsgsSent; got != tc.want {
				t.Errorf("%s: centre rank sent %d messages, want %d", tc.mode, got, tc.want)
			}
		})
	}
}

func TestDiagonalSmallerTotalBytesThanBasic(t *testing.T) {
	// Basic slabs include already-swept halos, so its total byte volume is
	// at least diagonal's (paper: diagonal has "smaller messages").
	g := grid.MustNew([]int{24, 24, 24}, nil)
	run := func(mode Mode) int64 {
		w := mpi.NewWorld(8)
		err := w.Run(func(c *mpi.Comm) {
			f, _, cart := distField(t, c, g, []int{2, 2, 2}, 8)
			NewDepth(mode, cart, f, 0, nil).Exchange(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, s := range w.StatsSnapshot() {
			total += s.BytesSent
		}
		return total
	}
	basic, diag := run(ModeBasic), run(ModeDiagonal)
	if diag > basic {
		t.Errorf("diagonal bytes %d > basic bytes %d", diag, basic)
	}
}

func TestFullOverlapProtocol(t *testing.T) {
	// Start -> computation -> Finish must deliver the same halos as a
	// synchronous exchange, under every mode: the split is the
	// exchanger's, not the full pattern's.
	cases := []struct{ shape, topo []int }{
		{[]int{16, 16}, []int{2, 2}},
		{[]int{12, 12, 12}, []int{2, 2, 2}},
	}
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%dD", mode, len(tc.shape)), func(t *testing.T) {
				g := grid.MustNew(tc.shape, nil)
				w := mpi.NewWorld(1 << len(tc.topo))
				err := w.Run(func(c *mpi.Comm) {
					f, _, cart := distField(t, c, g, tc.topo, 4)
					ref, _, _ := distField(t, c, g, tc.topo, 4)
					NewDepth(mode, cart, ref, 1, nil).Exchange(0)
					ex := NewDepth(mode, cart, f, 0, nil)
					ex.Start(0)
					// The last phase is only posted: the faces it fills (the
					// last dimension's, under every mode) are still empty.
					nd := f.NDims()
					for _, s := range []int{-1, 1} {
						o := make([]int, nd)
						o[nd-1] = s
						if cart.Neighbor(o) == mpi.ProcNull {
							continue
						}
						r := f.RecvRegionDepth(o, nil, nil)
						face := make([]float32, r.Size())
						f.Buf(0).Pack(r, face)
						for _, v := range face {
							if v != 0 {
								t.Errorf("%s rank %d: ghost face %v written before Finish", mode, c.Rank(), o)
								break
							}
						}
					}
					ex.Finish(0)
					if n := verifyHalo(t, f, c.Rank(), mode.String()+"-split"); n == 0 {
						t.Errorf("%s rank %d: no halo cells verified", mode, c.Rank())
					}
					if !reflect.DeepEqual(f.Buf(0).Data, ref.Buf(0).Data) {
						t.Errorf("%s rank %d: split exchange and Exchange leave different buffers", mode, c.Rank())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"basic": ModeBasic, "diag": ModeDiagonal, "diagonal": ModeDiagonal,
		"diag2": ModeDiagonal, "full": ModeFull, "none": ModeNone,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode should fail")
	}
}

func TestExchangeSingleRankIsNoOp(t *testing.T) {
	g := grid.MustNew([]int{8, 8}, nil)
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		w := mpi.NewWorld(1)
		err := w.Run(func(c *mpi.Comm) {
			f, _, cart := distField(t, c, g, []int{1, 1}, 2)
			NewDepth(mode, cart, f, 0, nil).Exchange(0)
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st := w.StatsSnapshot(); st[0].MsgsSent != 0 {
			t.Errorf("%v: single rank sent %d messages", mode, st[0].MsgsSent)
		}
	}
}

func TestMultipleFieldsDistinctStreams(t *testing.T) {
	// Two fields exchanged through distinct streams must not cross-match.
	g := grid.MustNew([]int{8, 8}, nil)
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		d, _ := grid.NewDecomposition(g, 4, []int{2, 2})
		cart, _ := mpi.CartCreate(c, d.Topology, nil)
		f1, _ := field.NewFunction("a", g, 2, &field.Config{Decomp: d, Rank: c.Rank()})
		f2, _ := field.NewFunction("b", g, 2, &field.Config{Decomp: d, Rank: c.Rank()})
		fillDomain(f1)
		// f2 = f1 + 100000 so values are distinguishable.
		fillDomain(f2)
		dom := f2.DomainRegion()
		tmp := make([]float32, dom.Size())
		f2.Buf(0).Pack(dom, tmp)
		for i := range tmp {
			tmp[i] += 100000
		}
		f2.Buf(0).Unpack(dom, tmp)

		e1 := NewDepth(ModeFull, cart, f1, 0, nil)
		e2 := NewDepth(ModeFull, cart, f2, 1, nil)
		// Interleave the two exchanges.
		e1.Start(0)
		e2.Start(0)
		e2.Finish(0)
		e1.Finish(0)
		verifyHalo(t, f1, c.Rank(), "stream0")
		// Check one halo value of f2 carries the +100000 bias.
		full := f2.FullShape()
		buf := f2.Buf(0)
		found := false
		for i := 0; i < full[0] && !found; i++ {
			for j := 0; j < full[1] && !found; j++ {
				domR := f2.DomainRegion()
				inDom := i >= domR.Lo[0] && i < domR.Hi[0] && j >= domR.Lo[1] && j < domR.Hi[1]
				gi, gj := f2.Origin[0]+i-f2.Halo[0], f2.Origin[1]+j-f2.Halo[1]
				if inDom || gi < 0 || gi >= 8 || gj < 0 || gj >= 8 {
					continue
				}
				found = true
				want := enc([]int{gi, gj}) + 100000
				if got := buf.At(i, j); got != want {
					t.Errorf("rank %d: f2 halo = %v, want %v", c.Rank(), got, want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleParseMode() {
	m, _ := ParseMode("diag2")
	fmt.Println(m)
	// Output: diag
}
