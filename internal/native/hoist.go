package native

import (
	"fmt"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/runtime"
)

// hoisting is a kernel's time-invariant segments and the rows they drain
// into. A segment whose every input holds still through an Apply — fields
// no kernel of the operator writes, scalars from the bound pool, rows of
// other such segments — computes the same row at every step, so it runs
// once per Apply (Prime) and the steps run the rest (the steady template),
// reading the rows back like field operands. Only a row a steady segment
// reads is kept; one only other invariant segments read stays a register
// row of the priming sweep. The float64 operations and their order are
// the full run's, so the bits are too.
type hoisting struct {
	segs  int     // invariant segments
	n     int     // hoisted rows
	slots []int32 // the load slots the invariant segments read
	// ref is the bound field whose row bases locate a run's first point:
	// the first equation's output, which every swept point is stored into.
	ref int
	// rows holds the n hoisted rows back to back, each over the primed
	// box, row-major with strides stride; allocated by the first Prime,
	// and again only when a larger box is primed.
	rows   []float64
	primed runtime.Box
	stride [runtime.MaxDims]int
	size   int  // points in the primed box
	live   bool // a Prime is in force
}

// Hoist finds the kernel's time-invariant segments: those that end in a
// torow, whose field operands read only single-buffer fields that written
// rejects — written reports whether any kernel of the operator stores into
// a field — and whose register-row operands come from other invariant
// segments (see bytecode.Invariant). It builds the priming and steady
// templates and returns how many segments hoist. Called once, before the
// first Prime.
func (k *Kernel) Hoist(written func(*field.Function) bool) int {
	segs, bd := k.segs, k.bk.Binding()
	inv := bytecode.Invariant(segs, bd, written)
	h := &k.hoist
	*h = hoisting{}
	hoisted := make([]int32, len(segs))
	for i, seg := range segs {
		hoisted[i] = -1
		if inv[i] {
			h.segs++
			for _, l := range seg.Links {
				for _, o := range [...]bytecode.Operand{l.X, l.Y, l.Z} {
					if o.Class == bytecode.ClassF {
						h.slots = append(h.slots, o.Index)
					}
				}
			}
			continue
		}
		for _, w := range seg.Writers { // a steady segment reads what w drained
			if inv[w] && hoisted[w] < 0 {
				hoisted[w] = int32(h.n)
				h.n++
			}
		}
	}
	if h.n == 0 { // nothing a step reads holds still
		*h = hoisting{}
		k.tms[partPrime], k.tms[partSteady] = nil, nil
		return 0
	}
	h.ref = bd.Outs[0].Field
	nd := len(bd.Fields[h.ref].LocalShape)
	h.primed = runtime.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	k.tms[partPrime] = k.template(segs, inv, hoisted, partPrime)
	k.tms[partSteady] = k.template(segs, inv, hoisted, partSteady)
	return h.segs
}

// span is b's extent along dimension d clipped to the points the priming
// sweep can address: every invariant read, and the store a sweep makes at
// each point, inside its buffer.
func (k *Kernel) span(b runtime.Box, d int) (lo, hi int) {
	bd := k.bk.Binding()
	ref := bd.Fields[k.hoist.ref]
	below, above := ref.Halo[d], ref.Halo[d]
	for _, si := range k.hoist.slots {
		s := bd.Slots[si]
		halo := bd.Fields[s.Field].Halo[d]
		below, above = min(below, halo+s.Off[d]), min(above, halo-s.Off[d])
	}
	return max(b.Lo[d], -below), min(b.Hi[d], ref.LocalShape[d]+above)
}

// HoistBytes is what Prime(b, …) keeps: one float64 per hoisted row per
// point of b, clipped as Prime clips it; 0 when nothing hoists.
func (k *Kernel) HoistBytes(b runtime.Box) int {
	if k.hoist.n == 0 {
		return 0
	}
	points := 1
	for d := range b.Lo {
		lo, hi := k.span(b, d)
		points *= max(hi-lo, 0)
	}
	return 8 * k.hoist.n * points
}

// Hoisted reports how many segments hoist, how many rows they keep for
// the steps, and the bytes those rows hold now (0 before the first Prime).
func (k *Kernel) Hoisted() (segments, rows, bytes int) {
	return k.hoist.segs, k.hoist.n, 8 * len(k.hoist.rows)
}

// Prime runs the invariant segments over b, clipped to the points whose
// reads and stores lie inside their buffers, into the hoisted rows with
// the bound pool. Until Unprime, a Run whose box lies inside the primed
// one runs the steady template. The inputs must hold still until then: no
// field an invariant segment reads may be written (a PostStep hook
// included) while the kernel is primed. A kernel without invariant
// segments ignores it.
func (k *Kernel) Prime(b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	h := &k.hoist
	if h.n == 0 {
		return
	}
	for d := range b.Lo {
		h.primed.Lo[d], h.primed.Hi[d] = k.span(b, d)
	}
	h.size = 1
	for d := len(b.Lo) - 1; d >= 0; d-- {
		h.stride[d] = h.size
		h.size *= max(h.primed.Hi[d]-h.primed.Lo[d], 0)
	}
	if need := h.n * h.size; cap(h.rows) < need {
		h.rows = make([]float64, need)
	} else {
		h.rows = h.rows[:need]
	}
	h.live = false
	k.cur = partPrime
	k.drv.Run(k, 0, h.primed, pool, opts)
	k.cur = partAll
	h.live = true
}

// Unprime ends the Prime in force: every Run runs every segment again.
func (k *Kernel) Unprime() { k.hoist.live = false }

// covers reports whether a Prime is in force whose rows hold box b.
func (h *hoisting) covers(b runtime.Box) bool {
	if !h.live {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] < h.primed.Lo[d] || b.Hi[d] > h.primed.Hi[d] {
			return false
		}
	}
	return true
}

// locate returns where in a hoisted row the run of rows rows of n points
// starts whose first point sits at flat index base of ref's buffer, and
// the rows' pitch along dimension nd-2. A run that leaves the primed box
// panics.
func (h *hoisting) locate(ref *field.Function, base, n, rows int) (off, pitch int) {
	nd := len(h.primed.Lo)
	in := true
	for d, s := range ref.Bufs[0].Strides {
		c := base / s
		base -= c * s
		i := c - ref.Halo[d]
		off += (i - h.primed.Lo[d]) * h.stride[d]
		last := i
		switch d {
		case nd - 1:
			last += n - 1
		case nd - 2:
			last += rows - 1
		}
		in = in && h.primed.Lo[d] <= i && last < h.primed.Hi[d]
	}
	if !in {
		panic(fmt.Sprintf("native: a run of %d rows of %d points leaves the primed box %v", rows, n, h.primed))
	}
	return off, h.stride[max(nd-2, 0)]
}
