package grid

import (
	"fmt"
	"sort"
)

// Decomposition is the partition of a grid over a Cartesian process
// topology. For each dimension it records the split of global indices into
// contiguous per-coordinate chunks.
type Decomposition struct {
	Grid *Grid
	// Topology is the process grid shape (one entry per space dimension);
	// its product equals the communicator size.
	Topology []int
	// starts[d][c] is the first global index owned by topology coordinate c
	// along dimension d; chunk c spans [starts[d][c], starts[d][c+1]).
	starts [][]int
}

// DimsCreate factors nprocs into ndims balanced factors, largest first —
// the behaviour of MPI_Dims_create. It is deterministic.
func DimsCreate(nprocs, ndims int) []int {
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Repeatedly peel the largest prime factor onto the smallest dim.
	rem := nprocs
	var factors []int
	for f := 2; f*f <= rem; f++ {
		for rem%f == 0 {
			factors = append(factors, f)
			rem /= f
		}
	}
	if rem > 1 {
		factors = append(factors, rem)
	}
	// Assign large factors first to the currently-smallest dimension.
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		minIdx := 0
		for i := 1; i < ndims; i++ {
			if dims[i] < dims[minIdx] {
				minIdx = i
			}
		}
		dims[minIdx] *= f
	}
	// MPI convention: non-increasing order.
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims
}

// NewDecomposition splits the grid over nprocs ranks. topology may be nil
// (DimsCreate is used, mirroring Devito's default) or an explicit process
// grid whose product must equal nprocs (the paper's Grid(..., topology=...)).
func NewDecomposition(g *Grid, nprocs int, topology []int) (*Decomposition, error) {
	nd := g.NDims()
	if topology == nil {
		topology = DimsCreate(nprocs, nd)
	}
	if len(topology) != nd {
		return nil, fmt.Errorf("grid: topology rank %d != grid rank %d", len(topology), nd)
	}
	prod := 1
	for _, t := range topology {
		if t < 1 {
			return nil, fmt.Errorf("grid: topology entries must be positive: %v", topology)
		}
		prod *= t
	}
	if prod != nprocs {
		return nil, fmt.Errorf("grid: topology %v does not tile %d processes", topology, nprocs)
	}
	d := &Decomposition{Grid: g, Topology: append([]int(nil), topology...)}
	d.starts = make([][]int, nd)
	for dim := 0; dim < nd; dim++ {
		n, p := g.Shape[dim], topology[dim]
		if n < p {
			return nil, fmt.Errorf("grid: cannot split %d points over %d processes along dim %d", n, p, dim)
		}
		starts := make([]int, p+1)
		base, rem := n/p, n%p
		pos := 0
		for c := 0; c < p; c++ {
			starts[c] = pos
			size := base
			// Devito/NumPy convention: the remainder is spread over the
			// first `rem` chunks.
			if c < rem {
				size++
			}
			pos += size
		}
		starts[p] = n
		d.starts[dim] = starts
	}
	return d, nil
}

// Coords decodes a rank into topology coordinates (row-major, first
// dimension slowest — MPI_Cart order).
func (d *Decomposition) Coords(rank int) []int {
	nd := len(d.Topology)
	coords := make([]int, nd)
	for dim := nd - 1; dim >= 0; dim-- {
		coords[dim] = rank % d.Topology[dim]
		rank /= d.Topology[dim]
	}
	return coords
}

// Rank encodes topology coordinates into a rank, or -1 if any coordinate is
// out of bounds (non-periodic boundary, MPI_PROC_NULL).
func (d *Decomposition) Rank(coords []int) int {
	rank := 0
	for dim, c := range coords {
		if c < 0 || c >= d.Topology[dim] {
			return -1
		}
		rank = rank*d.Topology[dim] + c
	}
	return rank
}

// NProcs returns the communicator size the decomposition targets.
func (d *Decomposition) NProcs() int {
	n := 1
	for _, t := range d.Topology {
		n *= t
	}
	return n
}

// LocalRange returns the half-open global index range [lo, hi) owned along
// dimension dim by topology coordinate c.
func (d *Decomposition) LocalRange(dim, c int) (lo, hi int) {
	return d.starts[dim][c], d.starts[dim][c+1]
}

// LocalShape returns the owned shape for a rank.
func (d *Decomposition) LocalShape(rank int) []int {
	coords := d.Coords(rank)
	shape := make([]int, len(coords))
	for dim, c := range coords {
		lo, hi := d.LocalRange(dim, c)
		shape[dim] = hi - lo
	}
	return shape
}

// MaxLocalShape returns the largest owned chunk per dimension over all
// topology coordinates — the slowest rank's box. Every rank computes the
// same answer without communication (the decomposition is globally known),
// which lets performance models bound the per-step critical path
// deterministically across a distributed run.
func (d *Decomposition) MaxLocalShape() []int {
	nd := len(d.Topology)
	out := make([]int, nd)
	for dim := 0; dim < nd; dim++ {
		for c := 0; c < d.Topology[dim]; c++ {
			lo, hi := d.LocalRange(dim, c)
			if hi-lo > out[dim] {
				out[dim] = hi - lo
			}
		}
	}
	return out
}

// ShellCaps returns, per dimension, how many grid points exist beyond the
// rank's owned box on the low and high side — the geometric bound on how
// deep a redundant-recompute ghost shell can grow before falling off the
// global domain. A rank at a domain face gets 0 on that side; interior
// ranks get the full remaining extent.
func (d *Decomposition) ShellCaps(rank int) (lo, hi []int) {
	coords := d.Coords(rank)
	nd := len(coords)
	lo = make([]int, nd)
	hi = make([]int, nd)
	for dim, c := range coords {
		l, h := d.LocalRange(dim, c)
		lo[dim] = l
		hi[dim] = d.Grid.Shape[dim] - h
	}
	return lo, hi
}

// MinChunk returns the smallest owned extent per dimension over all
// topology coordinates — the limit on how wide a ghost region a one-hop
// nearest-neighbour exchange can fill.
func (d *Decomposition) MinChunk() []int {
	nd := len(d.Topology)
	out := make([]int, nd)
	for dim := 0; dim < nd; dim++ {
		for c := 0; c < d.Topology[dim]; c++ {
			lo, hi := d.LocalRange(dim, c)
			if c == 0 || hi-lo < out[dim] {
				out[dim] = hi - lo
			}
		}
	}
	return out
}

// LocalOrigin returns the global index of the first owned point per
// dimension for a rank.
func (d *Decomposition) LocalOrigin(rank int) []int {
	coords := d.Coords(rank)
	origin := make([]int, len(coords))
	for dim, c := range coords {
		origin[dim], _ = d.LocalRange(dim, c)
	}
	return origin
}

// OwnerCoord returns the topology coordinate owning global index g along
// dimension dim.
func (d *Decomposition) OwnerCoord(dim, g int) int {
	starts := d.starts[dim]
	// Binary search over chunk boundaries.
	lo, hi := 0, len(starts)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if starts[mid] <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// OwnerRank returns the rank owning the global point.
func (d *Decomposition) OwnerRank(point []int) int {
	coords := make([]int, len(point))
	for dim, g := range point {
		coords[dim] = d.OwnerCoord(dim, g)
	}
	return d.Rank(coords)
}

// GlobalToLocal converts a global index along dim to the local index on the
// given topology coordinate; ok is false when the point is not owned there.
func (d *Decomposition) GlobalToLocal(dim, c, g int) (int, bool) {
	lo, hi := d.LocalRange(dim, c)
	if g < lo || g >= hi {
		return 0, false
	}
	return g - lo, true
}
