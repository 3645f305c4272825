// Package field implements discrete functions over a grid: strided float32
// storage, the CORE/OWNED/DOMAIN/HALO data-region geometry of the paper
// (Fig. 4), time buffering, and the packing primitives used by halo
// exchanges.
package field

import "fmt"

// Buffer is an n-dimensional strided float32 array (row-major, last
// dimension contiguous).
type Buffer struct {
	Shape   []int
	Strides []int
	Data    []float32
}

// NewBuffer allocates a zeroed buffer of the given shape.
func NewBuffer(shape []int) *Buffer {
	n := 1
	strides := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = n
		n *= shape[d]
	}
	return &Buffer{
		Shape:   append([]int(nil), shape...),
		Strides: strides,
		Data:    make([]float32, n),
	}
}

// Index converts multi-dimensional coordinates into a flat offset.
func (b *Buffer) Index(idx []int) int {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= b.Shape[d] {
			panic(fmt.Sprintf("field: index %v out of bounds for shape %v", idx, b.Shape))
		}
		off += i * b.Strides[d]
	}
	return off
}

// At reads a single element.
func (b *Buffer) At(idx ...int) float32 { return b.Data[b.Index(idx)] }

// Set writes a single element.
func (b *Buffer) Set(v float32, idx ...int) { b.Data[b.Index(idx)] = v }

// Fill sets every element to v.
func (b *Buffer) Fill(v float32) {
	for i := range b.Data {
		b.Data[i] = v
	}
}

// Region is a half-open box [Lo[d], Hi[d]) in buffer coordinates.
type Region struct {
	Lo, Hi []int
}

// Size returns the number of points in the region (0 if empty in any dim).
func (r Region) Size() int {
	n := 1
	for d := range r.Lo {
		ext := r.Hi[d] - r.Lo[d]
		if ext <= 0 {
			return 0
		}
		n *= ext
	}
	return n
}

// Empty reports whether the region contains no points.
func (r Region) Empty() bool { return r.Size() == 0 }

// Shape returns the per-dimension extents (clamped at 0).
func (r Region) Shape() []int {
	out := make([]int, len(r.Lo))
	for d := range out {
		if e := r.Hi[d] - r.Lo[d]; e > 0 {
			out[d] = e
		}
	}
	return out
}

// Pack copies the region's elements into dst (row-major order within the
// region) and returns the element count. dst must have capacity >= Size.
func (b *Buffer) Pack(r Region, dst []float32) int {
	if r.Empty() {
		return 0
	}
	idx := append([]int(nil), r.Lo...)
	n := 0
	last := len(b.Shape) - 1
	rowLen := r.Hi[last] - r.Lo[last]
	for {
		base := b.Index(idx)
		copy(dst[n:n+rowLen], b.Data[base:base+rowLen])
		n += rowLen
		// Advance all but the last dimension odometer-style.
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < r.Hi[d] {
				break
			}
			idx[d] = r.Lo[d]
		}
		if d < 0 {
			break
		}
	}
	return n
}

// Unpack copies src into the region, inverse of Pack.
func (b *Buffer) Unpack(r Region, src []float32) int {
	if r.Empty() {
		return 0
	}
	idx := append([]int(nil), r.Lo...)
	n := 0
	last := len(b.Shape) - 1
	rowLen := r.Hi[last] - r.Lo[last]
	for {
		base := b.Index(idx)
		copy(b.Data[base:base+rowLen], src[n:n+rowLen])
		n += rowLen
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < r.Hi[d] {
				break
			}
			idx[d] = r.Lo[d]
		}
		if d < 0 {
			break
		}
	}
	return n
}

// AddUnpack accumulates src into the region (used by injection reduction).
func (b *Buffer) AddUnpack(r Region, src []float32) int {
	if r.Empty() {
		return 0
	}
	idx := append([]int(nil), r.Lo...)
	n := 0
	last := len(b.Shape) - 1
	rowLen := r.Hi[last] - r.Lo[last]
	for {
		base := b.Index(idx)
		for k := 0; k < rowLen; k++ {
			b.Data[base+k] += src[n+k]
		}
		n += rowLen
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < r.Hi[d] {
				break
			}
			idx[d] = r.Lo[d]
		}
		if d < 0 {
			break
		}
	}
	return n
}
