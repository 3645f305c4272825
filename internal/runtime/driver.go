package runtime

import (
	"fmt"

	"devigo/internal/field"
)

// MaxDims bounds the spatial dimensionality of compiled kernels (the
// compiler's dimension names are x, y, z).
const MaxDims = 3

// TileRows is the outer-dimension tile height every operator runs with:
// the unit of work the pool hands out to a team of two or more. No other
// height beat it outside run-to-run noise on any measured group, so it is
// not a setting. A team of one has nothing to hand out: it sweeps a box of
// two or more dimensions as one tile (see Driver.Run).
const TileRows = 8

// ExecOpts tunes kernel execution.
type ExecOpts struct {
	// Workers records the team size the owner of the options wants (the
	// operator sizes its Pool from it). The tile driver itself takes its
	// team from Pool: a Run without a Pool is serial.
	Workers int
	// TileRows is the number of outer-dimension rows per tile. <=0
	// disables tiling (one tile), and so does a team of one on a box of
	// two or more dimensions.
	TileRows int
	// Pool is the persistent worker team tiles are dispatched to; nil (or
	// a team of one) runs every tile on the calling goroutine.
	Pool *Pool
}

// Box is a half-open iteration box in domain-relative coordinates
// (0 = first owned point per dimension).
type Box struct {
	Lo, Hi []int
}

// Size returns the point count of the box.
func (b Box) Size() int {
	n := 1
	for d := range b.Lo {
		e := b.Hi[d] - b.Lo[d]
		if e <= 0 {
			return 0
		}
		n *= e
	}
	return n
}

// Empty reports whether the box has no points.
func (b Box) Empty() bool { return b.Size() == 0 }

// Slot is a resolved field access: which bound field, which time offset,
// and the per-dimension stencil offset. The flat buffer displacement is
// derived from the field's *current* strides at every Run, so reallocating
// ghost storage (deep halos for a larger exchange interval) never requires
// recompiling kernels.
type Slot struct {
	Field   int
	TimeOff int
	Off     [MaxDims]int
}

// Out records where one equation's store lands: which bound field and
// which time offset.
type Out struct {
	Field   int
	TimeOff int
}

// Binding is the storage a compiled kernel executes against: the bound
// fields with their names, the deduplicated load slots and the equation
// outputs, all addressed by index from the engine's program. Compilers
// fill it through AddField/AddSlot; after compilation it is immutable.
type Binding struct {
	Fields []*field.Function
	Names  []string
	Slots  []Slot
	Outs   []Out

	slotIdx map[Slot]int
}

// AddField returns the index of the named field, binding its storage from
// fields on first use.
func (bd *Binding) AddField(name string, fields map[string]*field.Function) (int, error) {
	for i, n := range bd.Names {
		if n == name {
			return i, nil
		}
	}
	f, ok := fields[name]
	if !ok {
		return 0, fmt.Errorf("runtime: no storage registered for field %q", name)
	}
	bd.Fields = append(bd.Fields, f)
	bd.Names = append(bd.Names, name)
	return len(bd.Fields) - 1, nil
}

// AddSlot returns the index of the access (field, timeOff, off), appending
// a slot on first use so duplicate reads share one.
func (bd *Binding) AddSlot(fieldIdx, timeOff int, off []int) (int, error) {
	if len(off) > MaxDims {
		return 0, fmt.Errorf("runtime: access to %s with offset %v exceeds %d dimensions",
			bd.Names[fieldIdx], off, MaxDims)
	}
	s := Slot{Field: fieldIdx, TimeOff: timeOff}
	copy(s.Off[:], off)
	if i, ok := bd.slotIdx[s]; ok {
		return i, nil
	}
	if bd.slotIdx == nil {
		bd.slotIdx = map[Slot]int{}
	}
	bd.slotIdx[s] = len(bd.Slots)
	bd.Slots = append(bd.Slots, s)
	return len(bd.Slots) - 1, nil
}

// Validate checks that all bound fields share the local domain shape;
// differing halo widths are fine (strides are resolved at execution time).
func (bd *Binding) Validate() error {
	for i := 1; i < len(bd.Fields); i++ {
		for d := range bd.Fields[0].LocalShape {
			if bd.Fields[i].LocalShape[d] != bd.Fields[0].LocalShape[d] {
				return fmt.Errorf("runtime: fields %s and %s disagree on local shape",
					bd.Names[0], bd.Names[i])
			}
		}
	}
	return nil
}

// ExecKernel is the per-cluster execution contract every engine's compiled
// kernel satisfies — what package core holds once compileStep has picked
// an engine. Run's scalar vector is whatever the same kernel's BindSyms
// produced (the interpreter's symbol bindings, the bytecode/native
// engines' scalar pool); BindSymsInto builds it in the caller's storage,
// so an owner that binds per call allocates it once. A kernel is bound to
// the storage it was compiled against for its whole life.
type ExecKernel interface {
	Run(t int, b Box, syms []float64, opts *ExecOpts)
	BindSyms(vals map[string]float64) ([]float64, error)
	BindSymsInto(syms []float64, vals map[string]float64) ([]float64, error)
	FlopsPerPoint() int
	InstrsPerPoint() int
	StencilRadius() []int
}

// RowExec is the engine half of a kernel sweep. The Driver owns the loop
// nest; the engine executes its program over runs of contiguous rows, so
// the engine boundary is crossed once per run of rows, never per point.
// S is the engine's per-worker scratch (register files, evaluation
// stacks).
type RowExec[S any] interface {
	// Prep readies one worker's scratch for a sweep whose longest row is
	// maxRow points, with the scalars Run was given. It is called for
	// every team member from the single-threaded dispatch prologue, so it
	// may allocate on first use and must not in steady state.
	Prep(sc *S, maxRow int, syms []float64)
	// ExecRows executes every equation of the kernel, in program order,
	// over rows rows of n contiguous points each, one row after the other.
	// bases[f] is the flat buffer index of the first row's first point in
	// bound field f, and each next row starts pitch[f] further on; the
	// slot and output data resolved for this Run are the Driver's
	// Resolved. bases is the worker's own: the engine may advance it.
	ExecRows(sc *S, n, rows int, bases, pitch []int, syms []float64)
}

// NextRow advances per-field row bases by one row pitch: what an engine
// that executes one row at a time does between the rows of an ExecRows.
func NextRow(bases, pitch []int) {
	for f := range bases {
		bases[f] += pitch[f]
	}
}

// Resolved is a Binding resolved against one logical timestep: SlotData[i]
// and SlotOff[i] are slot i's buffer and flat stencil displacement,
// OutData[i] is equation i's output buffer. The Driver refills it at the
// head of every Run (buffer rotation changes the t-dependent data pointers
// per step; halo growth changes the strides); row executors read it.
type Resolved struct {
	*Binding
	SlotData [][]float32
	SlotOff  []int
	OutData  [][]float32
}

// refill resolves the per-(field,timeOff) data slices — and each slot's
// flat stencil displacement against the field's *current* strides — for
// timestep t on an nd-dimensional box, so buffer rotation and
// ghost-storage reallocation between steps stay transparent without
// re-deriving any geometry.
func (r *Resolved) refill(t, nd int) {
	for i, s := range r.Slots {
		f := r.Fields[s.Field]
		r.SlotData[i] = f.Buf(t + s.TimeOff).Data
		flat := 0
		for dim := 0; dim < nd; dim++ {
			flat += s.Off[dim] * f.Bufs[0].Strides[dim]
		}
		r.SlotOff[i] = flat
	}
	for i, o := range r.Outs {
		r.OutData[i] = r.Fields[o.Field].Buf(t + o.TimeOff).Data
	}
}

// worker is one team member's private sweep state: the per-field row
// bases and the engine's scratch. Allocated once per worker and reused
// across tiles and timesteps.
type worker[S any] struct {
	bases []int
	sc    S
}

// Driver is the tile driver shared by every engine: it resolves the
// binding's data slices once per Run, tiles the box's outer dimension into
// disjoint row bands, dispatches the tiles to the worker pool and hands
// each tile's rows to the engine's RowExec, one run of rows per plane.
// Tiles being disjoint, results are bit-identical for every worker count.
//
// All dispatch state lives in the Driver and is reused, so a steady-state
// Run performs no heap allocation. A Driver serves one Run at a time; each
// kernel owns one.
type Driver[S any] struct {
	Resolved

	ws []*worker[S]
	// pitch is each field's row pitch along dimension nd-2 for the sweep
	// in flight: the distance between the rows of one ExecRows.
	pitch []int

	// The sweep in flight: the Driver is its own pool Task, so handing it
	// to Pool.Run converts a pointer to an interface without allocating.
	exec     RowExec[S]
	box      Box
	syms     []float64
	tileRows int
}

// NewDriver allocates the dispatch state for a kernel bound to bd.
func NewDriver[S any](bd *Binding) *Driver[S] {
	return &Driver[S]{Resolved: Resolved{
		Binding:  bd,
		SlotData: make([][]float32, len(bd.Slots)),
		SlotOff:  make([]int, len(bd.Slots)),
		OutData:  make([][]float32, len(bd.Outs)),
	}, pitch: make([]int, len(bd.Fields))}
}

// Run executes x at every point of the box for logical timestep t, with
// the scalars bound via syms. Points run in row-major order; equations run
// in program order on each row. Tiles of opts.TileRows outer-dimension
// rows go to opts.Pool. A team of one (no Pool included) runs the tiles in
// order on the calling goroutine, which is the row order of one tile: so
// in two or more dimensions it takes the box as one tile, and the engine
// addresses each plane's rows once per Run instead of once per tile. A
// 1-D tile is its own row, so there the height asked for stays.
func (d *Driver[S]) Run(x RowExec[S], t int, b Box, syms []float64, opts *ExecOpts) {
	if b.Empty() {
		return
	}
	var o ExecOpts
	if opts != nil {
		o = *opts
	}
	nd := len(b.Lo)
	outer := b.Hi[0] - b.Lo[0]
	workers := o.Pool.Workers()
	tileRows := o.TileRows
	if tileRows <= 0 || tileRows > outer || (workers == 1 && nd > 1) {
		tileRows = outer
	}
	// The longest row a tile can produce: in 1-D, dim 0 is both the tiled
	// and the contiguous dimension, so the tile itself is the row.
	maxRow := b.Hi[nd-1] - b.Lo[nd-1]
	if nd == 1 {
		maxRow = tileRows
	}

	d.refill(t, nd)
	for fi, f := range d.Fields {
		d.pitch[fi] = f.Bufs[0].Strides[max(nd-2, 0)]
	}
	// The scratch table grows here, never from workers, so the pool
	// indexes a stable table.
	for len(d.ws) < workers {
		d.ws = append(d.ws, &worker[S]{bases: make([]int, len(d.Fields))})
	}
	for _, w := range d.ws[:workers] {
		x.Prep(&w.sc, maxRow, syms)
	}

	d.exec, d.box, d.syms, d.tileRows = x, b, syms, tileRows
	ntiles := (outer + tileRows - 1) / tileRows
	o.Pool.Run(d, ntiles, t)
}

// RunTile executes one tile — a band of tileRows outer-dimension rows —
// of the sweep in flight with worker w's scratch. It implements the pool's
// Task contract. The rows along dimension nd-2 are one arithmetic
// progression in every buffer, so the engine gets them as one run: the
// tile's band in 2-D, one plane's rows per outer index in 3-D (an odometer
// over dims 0..nd-3, whose every step re-derives the bases). A 1-D box's
// tile is its own single row.
func (d *Driver[S]) RunTile(w, tile int) {
	wk := d.ws[w]
	b := d.box
	nd := len(b.Lo)
	lo := b.Lo[0] + tile*d.tileRows
	hi := min(lo+d.tileRows, b.Hi[0])
	var odo [MaxDims]int
	idx := odo[:nd]
	copy(idx, b.Lo)
	idx[0] = lo
	n, rows := hi-lo, 1
	if nd > 1 {
		n = b.Hi[nd-1] - b.Lo[nd-1]
		rows = b.Hi[nd-2] - b.Lo[nd-2]
		if nd == 2 {
			rows = hi - lo
		}
	}
	for {
		// First-row base per field (domain-relative -> buffer index).
		for fi, f := range d.Fields {
			base := 0
			for dim := 0; dim < nd; dim++ {
				base += (idx[dim] + f.Halo[dim]) * f.Bufs[0].Strides[dim]
			}
			wk.bases[fi] = base
		}
		d.exec.ExecRows(&wk.sc, n, rows, wk.bases, d.pitch, d.syms)
		// Advance the odometer over dims nd-3 .. 0, dim 0 bounded by the
		// tile; a 1-D or 2-D tile is done after its one run.
		dim := nd - 3
		for ; dim > 0 && idx[dim]+1 == b.Hi[dim]; dim-- {
			idx[dim] = b.Lo[dim]
		}
		if dim < 0 {
			return
		}
		idx[dim]++
		if dim == 0 && idx[0] >= hi {
			return
		}
	}
}
