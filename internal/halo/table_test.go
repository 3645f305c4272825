package halo

import (
	"fmt"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// The traffic an exchanger reports is read off the table it sends from, so
// it must equal what the transport counts for one Exchange on every rank —
// boundary ranks, which lack neighbours, included — and, on a rank that
// has its whole neighbourhood, the closed-form halo.Traffic the
// performance models use: one enumeration, three readers.
func TestExchangerTrafficMatchesTransport(t *testing.T) {
	topologies := [][]int{{2, 2}, {2, 2, 2}, {3, 3, 3}}
	depths := []struct {
		name         string
		alloc, depth int // depth 0: nil, the full allocated width
	}{
		{"full-width", 2, 0},
		{"partial", 4, 2},
		{"deep", 8, 6}, // k·r = 3·2 inside a deeper allocation
	}
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		for _, topo := range topologies {
			for _, dc := range depths {
				for _, periodic := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%s/periodic=%v", mode, topo, dc.name, periodic)
					t.Run(name, func(t *testing.T) {
						testTrafficMatchesTransport(t, mode, topo, dc.alloc, dc.depth, periodic)
					})
				}
			}
		}
	}
}

func testTrafficMatchesTransport(t *testing.T, mode Mode, topo []int, alloc, depth int, periodic bool) {
	nd, nprocs := len(topo), 1
	shape := make([]int, nd)
	periods := make([]bool, nd)
	for d, n := range topo {
		nprocs *= n
		shape[d] = 8 * n // 8-point chunks hold the deepest (8) allocation
		periods[d] = periodic
	}
	var depthVec []int
	width := alloc
	if depth > 0 {
		width = depth
		depthVec = make([]int, nd)
		for d := range depthVec {
			depthVec[d] = depth
		}
	}
	g := grid.MustNew(shape, nil)
	type traffic struct {
		msgs     int
		bytes    float64
		interior bool
		local    []int
	}
	got := make([]traffic, nprocs)
	w := mpi.NewWorld(nprocs)
	err := w.Run(func(c *mpi.Comm) {
		dec, err := grid.NewDecomposition(g, nprocs, topo)
		if err != nil {
			panic(err)
		}
		cart, err := mpi.CartCreate(c, dec.Topology, periods)
		if err != nil {
			panic(err)
		}
		f, err := field.NewFunction("u", g, 2, &field.Config{Decomp: dec, Rank: c.Rank(), HaloWidth: alloc})
		if err != nil {
			panic(err)
		}
		x := NewDepth(mode, cart, f, 0, depthVec)
		tr := traffic{interior: true, local: f.LocalShape}
		for _, o := range mpi.NeighborOffsets(nd) {
			if cart.Neighbor(o) == mpi.ProcNull {
				tr.interior = false
			}
		}
		tr.msgs, tr.bytes = x.Traffic()
		got[c.Rank()] = tr
		x.Exchange(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	interior := 0
	for rank, st := range w.StatsSnapshot() {
		tr := got[rank]
		if tr.msgs != st.MsgsSent || tr.bytes != float64(st.BytesSent) {
			t.Errorf("rank %d: exchanger reports (%d msgs, %g B), transport counted (%d, %d)",
				rank, tr.msgs, tr.bytes, st.MsgsSent, st.BytesSent)
		}
		if !tr.interior {
			continue
		}
		interior++
		if m, b := Traffic(mode, tr.local, width); tr.msgs != m || tr.bytes != b {
			t.Errorf("rank %d has every neighbour: exchanger reports (%d msgs, %g B), Traffic says (%d, %g)",
				rank, tr.msgs, tr.bytes, m, b)
		}
	}
	// Every rank of a periodic world is interior, as is the centre of a
	// non-periodic 3x3x3 one; a non-periodic 2^n world has none.
	want := 0
	switch {
	case periodic:
		want = nprocs
	case topo[0] == 3:
		want = 1
	}
	if interior != want {
		t.Errorf("%d ranks had their whole neighbourhood, want %d", interior, want)
	}
}
