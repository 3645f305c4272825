// Package checkpoint implements bounded-memory wavefield storage for
// time-reversed (adjoint/gradient) runs. Storing every timestep of a
// forward wavefield costs O(nt) grid copies — prohibitive for realistic
// step counts — so the store keeps snapshots only every Interval steps
// and the reverse sweep recomputes the forward field segment by segment
// between them. Each copy holds only what the sweep reads back. A
// snapshot of step s is the two levels step s reads, Buf(s-1) and Buf(s),
// as raw buffers (halos included), so a recomputed segment is
// bit-identical to the original integration, serially and under any DMP
// halo mode; the buffer step s overwrites is not kept. A cached level is
// the DOMAIN of one buffer, the points the space-offset-zero imaging
// condition reads. Memory is bounded by
//
//	2 levels per snapshot (nt/Interval+1 snapshots) + Interval+2 DOMAIN levels
//
// at the price of re-integrating every segment but the last once: the
// forward pass caches that segment's levels itself, so the sweep
// recomputes ((nt-1)/Interval)*Interval steps and none once Interval >= nt.
// The classic sqrt(nt) interval balances the two memory terms.
package checkpoint

import (
	"fmt"
	"math"
	"slices"

	"devigo/internal/field"
	"devigo/internal/obs"
)

// Store snapshots a set of wavefields during a forward run and serves
// their time levels back to a reverse sweep.
type Store struct {
	// Interval is the snapshot spacing in timesteps.
	Interval int
	// Rank identifies the owning rank in obs traces/metrics (0 when
	// serial; the gradient driver sets it under DMP).
	Rank int

	fields []*field.Function
	// doms caches each field's DOMAIN region; domain re-derives an entry
	// when the field's ghost depth has changed since.
	doms []field.Region
	// snaps maps a logical step s to copies of every field's Buf(s-1) and
	// Buf(s), in that order, in the state "ready to execute step s" (i.e.
	// taken after step s-1 completed, injections included).
	snaps map[int][][2][]float32
	// spare holds the buffers of snapshots Reset forgot, for Save to reuse.
	spare [][][2][]float32
	// levels[:live] is the recompute cache of the segment the reverse
	// sweep is consuming: the DOMAIN of each field's cyclic buffer Buf(t)
	// per cached level, in no particular order (a segment is Interval+2
	// levels, so lookups scan). levels[live:] is the free-list: entries
	// PruneLevels dropped, whose buffers the next RecordLevel reuses.
	levels []level
	live   int
	// resident names the cached level a live cyclic buffer's DOMAIN is
	// known to hold (no entry when unknown), so LoadLevel can skip a copy
	// that would change nothing.
	resident map[*field.Buffer]int

	// Stats accumulates the cost counters reported by benchmarks.
	Stats Stats
}

// level is one cached time level: the DOMAIN of every field's Buf(t),
// packed.
type level struct {
	t    int
	bufs [][]float32
}

// Stats counts the memory/recompute cost of a checkpointed run.
type Stats struct {
	// Snapshots is the number of snapshots taken.
	Snapshots int
	// SnapshotBytes is the total snapshot storage in bytes.
	SnapshotBytes int64
	// LevelBytes is the most bytes the level cache held at once.
	LevelBytes int64
	// RecomputedSteps counts forward steps re-integrated during the
	// reverse sweep (incremented by the driver).
	RecomputedSteps int
}

// DefaultInterval is the sqrt(nt) heuristic: it balances snapshot memory
// against recompute work.
func DefaultInterval(nt int) int {
	k := int(math.Ceil(math.Sqrt(float64(nt))))
	if k < 1 {
		k = 1
	}
	return k
}

// New creates a store snapshotting the given fields every interval steps.
// interval <= 0 panics; use DefaultInterval to derive one from the step
// count.
func New(interval int, fields ...*field.Function) *Store {
	if interval <= 0 {
		panic("checkpoint: interval must be positive")
	}
	return &Store{
		Interval: interval,
		fields:   fields,
		doms:     make([]field.Region, len(fields)),
		snaps:    map[int][][2][]float32{},
		resident: map[*field.Buffer]int{},
	}
}

// SaveIfDue snapshots the state "ready to execute step t" when t falls on
// the interval. Call it with t=0 before the forward loop and with t+1
// from the loop's post-step hook.
func (s *Store) SaveIfDue(t int) {
	if t%s.Interval == 0 {
		s.Save(t)
	}
}

// Save unconditionally snapshots the two levels step t reads, every
// field's Buf(t-1) and Buf(t), halos included, under step key t. Saving
// the same step twice overwrites the first snapshot in place (idempotent
// for reruns).
func (s *Store) Save(t int) {
	sp := obs.Begin(s.Rank, obs.PhaseCkptSave, t)
	defer func() {
		sp.End()
		obs.Add(s.Rank, obs.CtrCkptSaves, 1)
	}()
	snap, existed := s.snaps[t]
	if !existed {
		if n := len(s.spare); n > 0 {
			snap, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			snap = make([][2][]float32, len(s.fields))
		}
		for fi, f := range s.fields {
			for li := range snap[fi] {
				if n := len(f.Buf(t - 1 + li).Data); len(snap[fi][li]) != n {
					snap[fi][li] = make([]float32, n)
				}
				s.Stats.SnapshotBytes += int64(4 * len(snap[fi][li]))
			}
		}
		s.snaps[t] = snap
		s.Stats.Snapshots++
	}
	for fi, f := range s.fields {
		for li := range snap[fi] {
			copy(snap[fi][li], f.Buf(t-1+li).Data)
		}
	}
}

// Restore copies snapshot t back into every field's Buf(t-1) and Buf(t).
// The levels those buffers held are gone, so every later LoadLevel
// copies again; the buffer step t overwrites is left alone.
func (s *Store) Restore(t int) error {
	snap, ok := s.snaps[t]
	if !ok {
		return fmt.Errorf("checkpoint: no snapshot at step %d", t)
	}
	sp := obs.Begin(s.Rank, obs.PhaseCkptRestore, t)
	for fi, f := range s.fields {
		for li := range snap[fi] {
			copy(f.Buf(t-1+li).Data, snap[fi][li])
		}
	}
	clear(s.resident)
	sp.End()
	obs.Add(s.Rank, obs.CtrCkptRestores, 1)
	return nil
}

// SnapshotAtOrBefore returns the greatest snapshotted step <= t.
func (s *Store) SnapshotAtOrBefore(t int) (int, error) {
	best, found := 0, false
	for st := range s.snaps {
		if st <= t && (!found || st > best) {
			best, found = st, true
		}
	}
	if !found {
		return 0, fmt.Errorf("checkpoint: no snapshot at or before step %d", t)
	}
	return best, nil
}

// find returns the index of cached level t in levels[:live], or -1.
func (s *Store) find(t int) int {
	for i := range s.levels[:s.live] {
		if s.levels[i].t == t {
			return i
		}
	}
	return -1
}

// domain returns field fi's DOMAIN region.
func (s *Store) domain(fi int) field.Region {
	f := s.fields[fi]
	if r := s.doms[fi]; r.Lo != nil && slices.Equal(r.Lo, f.Halo[:len(r.Lo)]) {
		return r
	}
	s.doms[fi] = f.DomainRegion()
	return s.doms[fi]
}

// RecordLevel caches the DOMAIN of each field's cyclic buffer for logical
// time level t — called while integrating forward, right after the step
// (and its injection) that wrote Buf(t). Recording a cached level again
// overwrites it in place; a new level takes its buffers from the
// free-list PruneLevels and Reset fill, so a store allocates level buffers
// for its first segment only.
func (s *Store) RecordLevel(t int) {
	i := s.find(t)
	if i < 0 {
		i = s.live
		if i == len(s.levels) {
			lv := level{bufs: make([][]float32, len(s.fields))}
			for fi := range s.fields {
				lv.bufs[fi] = make([]float32, s.domain(fi).Size())
			}
			s.levels = append(s.levels, lv)
		}
		s.levels[i].t = t
		s.live++
		var bytes int64
		for _, b := range s.levels[i].bufs {
			bytes += int64(4 * len(b))
		}
		s.Stats.LevelBytes = max(s.Stats.LevelBytes, int64(s.live)*bytes)
	}
	lv := s.levels[i].bufs
	for fi, f := range s.fields {
		b := f.Buf(t)
		b.Pack(s.domain(fi), lv[fi])
		s.resident[b] = t
	}
}

// HasLevel reports whether time level t is cached.
func (s *Store) HasLevel(t int) bool { return s.find(t) >= 0 }

// LoadLevel makes the DOMAIN of each field's cyclic buffer Buf(t) hold
// cached time level t; halos keep whatever they held. A buffer that
// already holds the level — recorded from or loaded into it, and not
// overwritten through the store since — is left alone: the reverse sweep
// asks for levels j-1, j, j+1 at every step, and two of the three are the
// previous step's. The store sees the live buffers change only through
// RecordLevel, LoadLevel and Restore; a caller that steps the fields
// records every level it writes or restores a snapshot before it loads
// again (halo exchanges of a recorded level only refresh ghost points,
// which no consumer of a loaded level reads).
func (s *Store) LoadLevel(t int) error {
	i := s.find(t)
	if i < 0 {
		return fmt.Errorf("checkpoint: time level %d not cached", t)
	}
	for fi, f := range s.fields {
		b := f.Buf(t)
		if held, ok := s.resident[b]; !ok || held != t {
			b.Unpack(s.domain(fi), s.levels[i].bufs[fi])
			s.resident[b] = t
		}
	}
	return nil
}

// PruneLevels drops cached levels outside [lo, hi], bounding the cache to
// the segment the reverse sweep is consuming. Their buffers go to the
// free-list.
func (s *Store) PruneLevels(lo, hi int) {
	for i := 0; i < s.live; {
		if t := s.levels[i].t; t < lo || t > hi {
			s.live--
			s.levels[i], s.levels[s.live] = s.levels[s.live], s.levels[i]
			continue
		}
		i++
	}
}

// Reset empties the store for another run over the same fields: every
// snapshot and cached level is forgotten and Stats is zeroed, while their
// buffers stay for Save and RecordLevel to reuse. The next run reports
// what a fresh store would, and allocates nothing a previous run already
// did.
func (s *Store) Reset() {
	for t, snap := range s.snaps {
		s.spare = append(s.spare, snap)
		delete(s.snaps, t)
	}
	s.live = 0
	clear(s.resident)
	s.Stats = Stats{}
}
