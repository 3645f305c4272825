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
// condition reads.
//
// The schedule of an nt-step run at interval k: the forward pass caches
// the levels its last min(k, nt) steps read and write, TailLevel(nt, k)
// up to nt, and snapshots the steps 0, k, 2k, ... at or below
// TailLevel, (nt-1)/k of them. The reverse sweep consumes the cached tail
// first; below it, it restores the newest snapshot s under the levels it
// needs and re-integrates from s toward the next snapshot or the tail,
// whichever comes first, stopping two levels short: the next snapshot's
// restore or the tail already holds those two. No step is recomputed
// twice, nt-k-2·((nt-1)/k) steps in all (one more when k divides nt-1,
// none when that is not positive), and memory is bounded by
//
//	(nt-1)/k snapshots of 2 buffers + min(k, nt)+2 DOMAIN levels.
//
// DefaultInterval picks the largest k whose bound fits the bound of the
// classic sqrt(nt) interval.
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
	// per cached level, in no particular order (at most Interval+2
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
	// RecomputedSteps counts the forward steps the reverse sweep
	// re-integrated (the gradient solver adds each recompute's length).
	RecomputedSteps int
}

// TailLevel returns the lowest time level the forward pass of an
// nt-step run at interval k caches: its last min(k, nt) steps read and
// write levels TailLevel..nt, which the reverse sweep never recomputes.
// The forward pass snapshots the multiples of k at or below it (none when
// it is -1, the initial state).
func TailLevel(nt, k int) int { return max(nt-k, 0) - 1 }

// snapshots returns how many snapshots an nt-step run at interval k
// takes: the multiples of k at or below TailLevel.
func snapshots(nt, k int) int { return max(nt-1, 0) / k }

// levels returns how many levels the cache of an nt-step run at interval
// k holds at most: the forward tail's, which no recomputed segment
// outgrows.
func levels(nt, k int) int { return min(k, nt) + 2 }

// bound returns the bytes an nt-step run at interval k holds at most, its
// snapshots plus its cached levels; snap is the bytes of one snapshot and
// level those of one DOMAIN level.
func bound(nt, k int, snap, level int64) int64 {
	return int64(snapshots(nt, k))*snap + int64(levels(nt, k))*level
}

// sqrtInterval is the classic interval ⌈√nt⌉, which balances snapshot
// memory against the level cache when a snapshot costs one level.
func sqrtInterval(nt int) int {
	return max(int(math.Ceil(math.Sqrt(float64(nt)))), 1)
}

// sqrtBound is the memory the sqrt(nt) interval takes when it snapshots
// every multiple of k below nt and caches k+2 DOMAIN levels: the budget
// DefaultInterval spends.
func sqrtBound(nt int, snap, level int64) int64 {
	k := sqrtInterval(nt)
	return int64(max(nt-1, 0)/k+1)*snap + int64(k+2)*level
}

// DefaultInterval returns the interval of an nt-step run over fields of
// the given global shape and per-side halo widths: the largest k in
// [1, nt] whose bound fits sqrtBound. A snapshot holds two whole buffers
// (2·Π(shape+2·halo) points) and a level one DOMAIN (Π shape points), so
// on fields whose halos are wide the budget buys far fewer snapshots
// than levels. Every input is the same on every rank of a decomposed
// run, so every rank picks the same k; ranks that disagreed would run
// recompute Applys of different lengths.
func DefaultInterval(nt int, shape, halo []int) int {
	buf, level := int64(1), int64(1)
	for d, n := range shape {
		buf *= int64(n + 2*halo[d])
		level *= int64(n)
	}
	return defaultInterval(nt, 2*buf, level)
}

// defaultInterval is DefaultInterval over the bytes (or points) of one
// snapshot and one DOMAIN level.
func defaultInterval(nt int, snap, level int64) int {
	budget, k := sqrtBound(nt, snap, level), 1
	for c := 2; c <= nt; c++ {
		if bound(nt, c, snap, level) <= budget {
			k = c
		}
	}
	return k
}

// New creates a store snapshotting the given fields every interval steps.
// A positive interval is an invariant of the callers, not an input check:
// the gradient solver rejects a negative CheckpointInterval and replaces 0
// by DefaultInterval, which is at least 1, so New panics on interval <= 0
// rather than returning an error no caller could reach.
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
// the interval. The forward pass calls it for the steps at or below
// TailLevel: with t=0 before its loop and with t+1 from its post-step
// hook.
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
