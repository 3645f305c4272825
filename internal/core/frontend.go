package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"devigo/internal/field"
	"devigo/internal/ir"
	"devigo/internal/opcache"
	"devigo/internal/symbolic"
)

// frontEnd is what construction derives from the equations alone: the
// lowered, optimised cluster schedule, the CIRE scratch fields its
// clusters write, and each step's compute-box extension. It reads no
// storage beyond the facts scheduleKey hashes and is immutable once built
// (its expressions reference symbolic field refs, not storage), so one
// frontEnd serves every operator built from the same equations: it is the
// artifact an operator cache shares.
type frontEnd struct {
	sched   *ir.Schedule
	scratch []scratchField
	// stepExt[i] is step i's box extension (points beyond DOMAIN per
	// side): nonzero only for steps writing CIRE scratch.
	stepExt []int
}

// frontEndFor returns the front-end of an operator over eqs: from cache
// when one is attached — lowered once per unique key, under singleflight —
// and lowered privately otherwise.
func frontEndFor(cache *opcache.Cache, eqs []symbolic.Eq, fields map[string]*field.Function, nd int) (*frontEnd, error) {
	if cache == nil {
		return lowerFrontEnd(eqs, fields, nd)
	}
	v, _, err := cache.GetOrCompute(scheduleKey(eqs, fields, nd), func() (any, error) {
		return lowerFrontEnd(eqs, fields, nd)
	})
	if err != nil {
		return nil, err
	}
	fe, ok := v.(*frontEnd)
	if !ok {
		return nil, fmt.Errorf("core: operator cache holds %T under a schedule key (corrupt entry)", v)
	}
	return fe, nil
}

// lowerFrontEnd runs the symbolic front-end: CIRE materialises nested
// derivatives into scratch fields (computed redundantly over extended
// boxes, so their halo requirements are dropped), then the expanded
// equations lower to clusters and an optimised schedule. fields is read
// only for its time-buffer counts.
func lowerFrontEnd(eqs []symbolic.Eq, fields map[string]*field.Function, nd int) (*frontEnd, error) {
	eqs, scratch, scratchExt := applyCIRE(eqs, nd)
	clusters, err := ir.LowerExpanded(eqs, nd)
	if err != nil {
		return nil, err
	}
	// Adjust halo requirements around CIRE scratch clusters:
	//   - scratch fields are never exchanged (recomputed redundantly in
	//     the extension region instead);
	//   - a cluster computing over an *extended* box effectively reads
	//     every input beyond the domain, so even centred reads (the trig
	//     parameter fields of TTI) need fresh halos there.
	if len(scratchExt) > 0 {
		for _, c := range clusters {
			writesScratch := false
			for fname := range c.Writes {
				if _, ok := scratchExt[fname]; ok {
					writesScratch = true
				}
			}
			if writesScratch {
				for _, e := range c.Eqs {
					for _, a := range symbolic.Accesses(e.RHS) {
						if _, isScratch := scratchExt[a.Fun.Name]; isScratch {
							continue
						}
						m, ok := c.HaloReads[a.Fun.Name]
						if !ok {
							m = map[int]bool{}
							c.HaloReads[a.Fun.Name] = m
						}
						m[a.TimeOff] = true
					}
				}
			}
			for fname := range c.HaloReads {
				if _, isScratch := scratchExt[fname]; isScratch {
					delete(c.HaloReads, fname)
				}
			}
		}
	}
	isTime := func(fname string) bool {
		f, ok := fields[fname]
		return ok && len(f.Bufs) > 1
	}
	fe := &frontEnd{
		sched:   ir.OptimizeSchedule(ir.BuildSchedule(clusters, nd, isTime), isTime),
		scratch: scratch,
	}
	for _, st := range fe.sched.Steps {
		ext := 0
		for fname := range st.Cluster.Writes {
			ext = max(ext, scratchExt[fname])
		}
		fe.stepExt = append(fe.stepExt, ext)
	}
	return fe, nil
}

// scheduleKeyVersion is bumped whenever the front-end's artifact or the
// key derivation changes, so a cache shared across versions can never
// serve a stale artifact shape.
const scheduleKeyVersion = "devigo-schedule-v2"

// scheduleKey derives the content hash under which an operator cache
// holds a front-end: two NewOperator calls share a key exactly when the
// front-end lowers them alike. The hash covers what the front-end reads,
// in order:
//
//   - the number of space dimensions;
//   - per field (sorted by name): space order, staggering and time-buffer
//     count;
//   - the equations as submitted (pre-CIRE), rendered through the
//     symbolic package's deterministic structural String form.
//
// Everything else is left out — grid shape and extent, the decomposition,
// ghost widths, the engine, the exchange interval and every runtime knob:
// each operator allocates its own storage and compiles its own kernels, so
// none of these reaches the shared artifact, and one key serves every shot
// worker and every rank of a world.
func scheduleKey(eqs []symbolic.Eq, fields map[string]*field.Function, nd int) string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w(scheduleKeyVersion, fmt.Sprint(nd))
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fields[n]
		w("field", n, fmt.Sprint(f.SpaceOrder), fmt.Sprint(f.Stagger), fmt.Sprint(len(f.Bufs)))
	}
	for _, eq := range eqs {
		w("eq", eq.LHS.String(), eq.RHS.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}
