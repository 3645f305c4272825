// Package ddata implements the distributed data views of the paper: data
// is physically distributed over ranks but logically centralized from the
// user's perspective. Global indexing and NumPy-style slicing (negative
// indices included) are converted to rank-local accesses transparently
// (paper Listings 2 and 3).
package ddata

import (
	"fmt"
	"strings"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// Array is a rank's handle on a logically-global array backed by a
// distributed field.Function.
type Array struct {
	F      *field.Function
	Decomp *grid.Decomposition
	Rank   int
}

// New wraps a distributed function. Decomp may be nil for serial fields,
// in which case the whole grid is local.
func New(f *field.Function, dec *grid.Decomposition, rank int) *Array {
	return &Array{F: f, Decomp: dec, Rank: rank}
}

// Slice is a per-dimension half-open range with NumPy semantics: negative
// bounds count from the end; Lo==0 && Hi==0 with All selects everything.
type Slice struct {
	Lo, Hi int
	All    bool
}

// SliceAll selects a full dimension.
func SliceAll() Slice { return Slice{All: true} }

// SliceRange selects [lo, hi) with negative-index normalisation.
func SliceRange(lo, hi int) Slice { return Slice{Lo: lo, Hi: hi} }

// normalize resolves the slice against a dimension extent.
func (s Slice) normalize(n int) (lo, hi int, err error) {
	if s.All {
		return 0, n, nil
	}
	lo, hi = s.Lo, s.Hi
	if lo < 0 {
		lo += n
	}
	if hi < 0 {
		hi += n
	}
	if lo < 0 || hi > n || lo > hi {
		return 0, 0, fmt.Errorf("ddata: slice [%d:%d] out of range for extent %d", s.Lo, s.Hi, n)
	}
	return lo, hi, nil
}

// globalBox resolves slices into a global half-open box.
func (a *Array) globalBox(slices []Slice) (lo, hi []int, err error) {
	shape := a.F.Grid.Shape
	if len(slices) != len(shape) {
		return nil, nil, fmt.Errorf("ddata: %d slices for %d dims", len(slices), len(shape))
	}
	lo = make([]int, len(shape))
	hi = make([]int, len(shape))
	for d, s := range slices {
		lo[d], hi[d], err = s.normalize(shape[d])
		if err != nil {
			return nil, nil, err
		}
	}
	return lo, hi, nil
}

// localIntersection clips a global box to this rank's DOMAIN and returns
// the buffer-coordinate region; empty when disjoint.
func (a *Array) localIntersection(glo, ghi []int) field.Region {
	nd := a.F.NDims()
	r := field.Region{Lo: make([]int, nd), Hi: make([]int, nd)}
	for d := 0; d < nd; d++ {
		olo := a.F.Origin[d]
		ohi := olo + a.F.LocalShape[d]
		lo := max(glo[d], olo)
		hi := min(ghi[d], ohi)
		if hi < lo {
			hi = lo
		}
		// Convert to buffer coordinates (domain origin at Halo[d]).
		r.Lo[d] = lo - olo + a.F.Halo[d]
		r.Hi[d] = hi - olo + a.F.Halo[d]
	}
	return r
}

// SetSlice assigns a constant to a global slice of time buffer t; each rank
// writes only its owned intersection — the global-to-local conversion of
// paper Listing 2.
func (a *Array) SetSlice(t int, slices []Slice, v float32) error {
	glo, ghi, err := a.globalBox(slices)
	if err != nil {
		return err
	}
	r := a.localIntersection(glo, ghi)
	if r.Empty() {
		return nil
	}
	buf := a.F.Buf(t)
	fillRegion(buf, r, func([]int) float32 { return v })
	return nil
}

// SetFunc assigns v(globalCoords) over a global slice.
func (a *Array) SetFunc(t int, slices []Slice, v func(global []int) float32) error {
	glo, ghi, err := a.globalBox(slices)
	if err != nil {
		return err
	}
	r := a.localIntersection(glo, ghi)
	if r.Empty() {
		return nil
	}
	buf := a.F.Buf(t)
	fillRegion(buf, r, func(idx []int) float32 {
		g := make([]int, len(idx))
		for d := range idx {
			g[d] = idx[d] - a.F.Halo[d] + a.F.Origin[d]
		}
		return v(g)
	})
	return nil
}

// At reads the value at a global point if owned locally; ok=false otherwise.
func (a *Array) At(t int, global []int) (float32, bool) {
	idx := make([]int, len(global))
	for d, g := range global {
		l := g - a.F.Origin[d]
		if l < 0 || l >= a.F.LocalShape[d] {
			return 0, false
		}
		idx[d] = l + a.F.Halo[d]
	}
	return a.F.Buf(t).At(idx...), true
}

// fillRegion iterates a region applying fn(bufferIdx).
func fillRegion(buf *field.Buffer, r field.Region, fn func(idx []int) float32) {
	nd := len(r.Lo)
	idx := append([]int(nil), r.Lo...)
	if r.Empty() {
		return
	}
	for {
		buf.Set(fn(idx), idx...)
		d := nd - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < r.Hi[d] {
				break
			}
			idx[d] = r.Lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// LocalString renders the rank-local DOMAIN of time buffer t like the
// paper's Listing 2/3 stdout blocks (2-D only), e.g.
//
//	[[0.00 0.00]
//	 [0.00 1.00]]
func (a *Array) LocalString(t int) string {
	if a.F.NDims() != 2 {
		return fmt.Sprintf("<%d-D local view>", a.F.NDims())
	}
	buf := a.F.Buf(t)
	dom := a.F.DomainRegion()
	var b strings.Builder
	b.WriteString("[")
	for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
		if i > dom.Lo[0] {
			b.WriteString("\n ")
		}
		b.WriteString("[")
		for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
			if j > dom.Lo[1] {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.2f", buf.At(i, j))
		}
		b.WriteString("]")
	}
	b.WriteString("]")
	return b.String()
}

// Gather collects the global DOMAIN data of time buffer t on root using
// the communicator; returns the row-major global array on root, nil
// elsewhere. Every rank calls it (it is a collective, so its messages
// never meet user traffic); it works for any rank count including 1.
func (a *Array) Gather(c *mpi.Comm, root, t int) []float32 {
	dom := a.F.DomainRegion()
	local := make([]float32, dom.Size())
	a.F.Buf(t).Pack(dom, local)
	if c == nil || c.Size() == 1 {
		return local
	}
	var parts [][]float32
	if c.Rank() == root {
		parts = make([][]float32, c.Size())
		for r := range parts {
			parts[r] = make([]float32, a.chunkLen(r))
		}
	}
	c.Gather(root, local, parts)
	if c.Rank() != root {
		return nil
	}
	g := a.F.Grid
	out := make([]float32, g.Points())
	for r, data := range parts {
		grid.BoxRows(g.Shape, a.Decomp.LocalOrigin(r), a.Decomp.LocalShape(r), func(goff, loff, rowLen int) {
			copy(out[goff:goff+rowLen], data[loff:loff+rowLen])
		})
	}
	return out
}

// Scatter distributes a row-major global array from root into each rank's
// DOMAIN of time buffer t — the inverse of Gather. Every rank calls it;
// data is only read on root.
func (a *Array) Scatter(c *mpi.Comm, root, t int, data []float32) {
	dom := a.F.DomainRegion()
	if c == nil || c.Size() == 1 {
		a.F.Buf(t).Unpack(dom, data[:dom.Size()])
		return
	}
	var parts [][]float32
	if c.Rank() == root {
		g := a.F.Grid
		parts = make([][]float32, c.Size())
		for r := range parts {
			parts[r] = make([]float32, a.chunkLen(r))
			grid.BoxRows(g.Shape, a.Decomp.LocalOrigin(r), a.Decomp.LocalShape(r), func(goff, loff, rowLen int) {
				copy(parts[r][loff:loff+rowLen], data[goff:goff+rowLen])
			})
		}
	}
	local := make([]float32, dom.Size())
	c.Scatter(root, parts, local)
	a.F.Buf(t).Unpack(dom, local)
}

// chunkLen is the number of DOMAIN points rank r owns.
func (a *Array) chunkLen(r int) int {
	n := 1
	for _, s := range a.Decomp.LocalShape(r) {
		n *= s
	}
	return n
}
