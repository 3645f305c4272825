package grid

import "testing"

// ShellCaps at domain edges: a face rank has zero room on its outer side,
// an interior rank the remaining extent.
func TestShellCapsAtDomainEdges(t *testing.T) {
	g := MustNew([]int{12, 9}, nil)
	d, err := NewDecomposition(g, 6, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 = coords (0,0): owned [0,4)x[0,5).
	lo, hi := d.ShellCaps(0)
	if lo[0] != 0 || lo[1] != 0 {
		t.Errorf("rank 0 low caps = %v, want [0 0]", lo)
	}
	if hi[0] != 8 || hi[1] != 4 {
		t.Errorf("rank 0 high caps = %v, want [8 4]", hi)
	}
	// Rank 3 = coords (1,1): owned [4,8)x[5,9) — interior along dim 0,
	// high face along dim 1.
	lo, hi = d.ShellCaps(3)
	if lo[0] != 4 || lo[1] != 5 {
		t.Errorf("rank 3 low caps = %v, want [4 5]", lo)
	}
	if hi[0] != 4 || hi[1] != 0 {
		t.Errorf("rank 3 high caps = %v, want [4 0]", hi)
	}
}

// Prime rank counts produce 1-wide topologies whose uneven chunks must
// still yield consistent shell geometry and MinChunk figures.
func TestShellGeometryPrimeRanks(t *testing.T) {
	g := MustNew([]int{29, 8}, nil)
	d, err := NewDecomposition(g, 7, nil) // DimsCreate(7,2) = [7,1]
	if err != nil {
		t.Fatal(err)
	}
	if d.Topology[0] != 7 || d.Topology[1] != 1 {
		t.Fatalf("topology = %v, want [7 1]", d.Topology)
	}
	// 29 over 7: chunks 5,4,4,4,4,4,4.
	mc := d.MinChunk()
	if mc[0] != 4 || mc[1] != 8 {
		t.Errorf("MinChunk = %v, want [4 8]", mc)
	}
	// Shell caps must tile: lo + owned + hi == global extent on every rank.
	for r := 0; r < 7; r++ {
		lo, hi := d.ShellCaps(r)
		shape := d.LocalShape(r)
		for dim := 0; dim < 2; dim++ {
			if lo[dim]+shape[dim]+hi[dim] != g.Shape[dim] {
				t.Errorf("rank %d dim %d: caps %d+%d+%d != %d", r, dim, lo[dim], shape[dim], hi[dim], g.Shape[dim])
			}
		}
	}
}
