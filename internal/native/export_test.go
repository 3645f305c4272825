package native

import "devigo/internal/runtime"

// SteadySkews reports the per-row corrections of the steady template on the
// first run of rows of box b (see patchRows): how many field operands,
// stores and hoisted rows move by another pitch than the run's. The kernel
// must have run and been primed over b.
func (k *Kernel) SteadySkews(b runtime.Box) (fields, stores, hoisted int) {
	return k.skewsOf(partSteady, b)
}

// skewsOf addresses a private exec of template p for the first run of rows
// of the 2-D or 3-D box b, against the storage the kernel's last Run
// resolved, and classifies what its skews list holds by patch list.
func (k *Kernel) skewsOf(p part, b runtime.Box) (fields, stores, hoisted int) {
	tm := k.tms[p]
	e := newExec(tm)
	k.resolveGroups(tm, e)
	r := &k.drv.Resolved
	nd := len(b.Lo)
	bases, pitch := make([]int, len(r.Fields)), make([]int, len(r.Fields))
	for fi, f := range r.Fields {
		for d := range b.Lo {
			bases[fi] += (b.Lo[d] + f.Halo[d]) * f.Bufs[0].Strides[d]
		}
		pitch[fi] = f.Bufs[0].Strides[nd-2]
	}
	k.patchRows(tm, e, b.Hi[nd-1]-b.Lo[nd-1], b.Hi[nd-2]-b.Lo[nd-2], bases, pitch)
	on := func(list []patch, s skew) bool {
		for _, q := range list {
			if q.li == s.li && q.pos == s.pos {
				return true
			}
		}
		return false
	}
	for _, s := range e.skews {
		switch {
		case on(tm.fs, s):
			fields++
		case on(tm.es, s):
			stores++
		case on(tm.hs, s):
			hoisted++
		}
	}
	return fields, stores, hoisted
}
