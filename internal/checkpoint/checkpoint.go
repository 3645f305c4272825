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
// The store runs the schedule of an nt-step run at interval k itself. A
// run calls Begin(nt) before its first step and Keep(t) once it reaches
// each state t. The forward pass caches the levels its last min(k, nt)
// steps read and write, the tail max(nt-k, 0)-1 up to nt, and snapshots
// the steps 0, k, 2k, ... at or below the tail, (nt-1)/k of them. The reverse sweep
// asks Load for the levels each of its steps reads. Load serves the
// cached tail first; below it, it restores the newest snapshot s under
// the levels asked for and has the caller replay from s toward the next
// snapshot or the tail, whichever comes first, stopping two levels
// short: the next snapshot's restore or the tail already holds those
// two. No step is replayed twice: nt-k-2·((nt-1)/k) steps (one more when
// k divides nt-1), none when k >= nt or k <= 2. Memory is bounded by
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
	// serial; the gradient solver sets it under DMP).
	Rank int

	fields []*field.Function
	// doms caches each field's DOMAIN region; domain re-derives an entry
	// when the field's ghost depth has changed since.
	doms []field.Region
	// snaps maps a logical step s to copies of every field's Buf(s-1) and
	// Buf(s), in that order, in the state "ready to execute step s" (i.e.
	// taken after step s-1 completed, injections included).
	snaps map[int][][2][]float32
	// spare holds the buffers of snapshots Begin forgot, for Save to reuse.
	spare [][][2][]float32
	// levels[:live] is the recompute cache of the segment the reverse
	// sweep is consuming: the DOMAIN of each field's cyclic buffer Buf(t)
	// per cached level, in no particular order. levels[live:] is the
	// free-list: entries prune dropped, whose buffers the next record
	// reuses.
	levels []level
	live   int
	// ring indexes the cache by level: ring[t mod len(ring)] is the index
	// in levels[:live] of cached level t, or -1. The schedule's cached
	// levels are consecutive, at most min(Interval, nt)+2 of them (Begin
	// sizes the ring so), so no two share a slot; record widens the ring
	// when two would.
	ring []int
	// resident names the cached level a live cyclic buffer's DOMAIN is
	// known to hold (no entry when unknown), so load can skip a copy that
	// would change nothing.
	resident map[*field.Buffer]int
	// tail is the lowest level the current run's forward pass caches
	// (see the package doc); Begin sets it.
	tail int
	// replaying is set while Load's replay runs: Keep then caches levels
	// only.
	replaying bool

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
	// re-integrated: the lengths of Load's replays.
	RecomputedSteps int
}

// snapshots returns how many snapshots an nt-step run at interval k
// takes: the multiples of k at or below the tail.
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

// Begin starts an nt-step run over the store's fields. It forgets the
// snapshots and cached levels of the run before, keeping their buffers
// for reuse, and zeroes Stats, so the run reports what a fresh store
// would and allocates nothing the run before did. It then keeps the
// initial state: Keep(0) and, when the tail is -1 (Interval >= nt),
// level -1.
func (s *Store) Begin(nt int) {
	for t, snap := range s.snaps {
		s.spare = append(s.spare, snap)
		delete(s.snaps, t)
	}
	s.live = 0
	if n := levels(nt, s.Interval); len(s.ring) < n {
		s.ring = make([]int, n)
	}
	for i := range s.ring {
		s.ring[i] = -1
	}
	clear(s.resident)
	s.Stats = Stats{}
	s.tail = max(nt-s.Interval, 0) - 1
	if s.tail < 0 {
		s.record(-1)
	}
	s.Keep(0)
}

// Keep takes what the schedule keeps of state t, "ready to execute step
// t": a run calls it from its post-step hook with t+1 once step t and its
// injection are done. In the forward pass it snapshots t when t is a
// multiple of Interval at or below the tail and caches level t at or
// above it; while Load's replay runs it caches level t only.
func (s *Store) Keep(t int) {
	if !s.replaying && t <= s.tail && t%s.Interval == 0 {
		s.Save(t)
	}
	if s.replaying || t >= s.tail {
		s.record(t)
	}
}

// Load makes the DOMAIN of each field's cyclic buffer Buf(t) hold level t
// for t = lo..hi; halos keep whatever they held. When lo or hi is not
// cached it first restores the newest snapshot s at or below hi-1, drops
// the cached levels outside the segment it serves and, unless the rest of
// the segment is cached, calls replay(s, e) to integrate from state s to
// state e, steps s..e-1, each followed by Keep (see the package doc). The
// replayed steps count in Stats.RecomputedSteps.
//
// A buffer that already holds its level is not copied again: the sweep
// asks for levels j-1, j, j+1 at every step, and two of the three are the
// previous step's. The store sees the live buffers change only through
// Keep, Load and Restore, so a caller that steps the fields hands every
// state it reaches to Keep (a halo exchange of a kept level refreshes
// only ghost points, which no consumer of a loaded level reads).
func (s *Store) Load(lo, hi int, replay func(from, to int) error) error {
	if s.find(lo) < 0 || s.find(hi) < 0 {
		// Basing the lookup on hi-1, not lo, makes the segment snap-1..e
		// cover hi even when hi sits on a snapshot step; lo >= snap-1
		// since snapshots are Interval apart.
		snap, err := s.snapshotAtOrBefore(hi - 1)
		if err != nil {
			return err
		}
		if err := s.Restore(snap); err != nil {
			return err
		}
		// The segment ends at the next snapshot or one above the tail,
		// whichever comes first; its top two levels are still cached (the
		// next snapshot's restore recorded them, or the forward pass), so
		// the replay stops below them.
		e := min(snap+s.Interval, s.tail+1)
		s.prune(snap-1, e)
		for e > snap && s.find(e) >= 0 {
			e--
		}
		s.record(snap - 1)
		s.record(snap)
		if e > snap {
			s.replaying = true
			err := replay(snap, e)
			s.replaying = false
			if err != nil {
				return err
			}
			s.Stats.RecomputedSteps += e - snap
		}
	}
	for t := lo; t <= hi; t++ {
		if err := s.load(t); err != nil {
			return err
		}
	}
	return nil
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
// The levels those buffers held are gone, so the next Load copies them
// again; the buffer step t overwrites is left alone.
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

// snapshotAtOrBefore returns the greatest snapshotted step <= t.
func (s *Store) snapshotAtOrBefore(t int) (int, error) {
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
	if len(s.ring) == 0 {
		return -1
	}
	if i := s.ring[s.slot(t)]; i >= 0 && s.levels[i].t == t {
		return i
	}
	return -1
}

// slot is level t's entry in ring.
func (s *Store) slot(t int) int {
	n := len(s.ring)
	return (t%n + n) % n
}

// widen makes ring long enough that t and every cached level have slots
// of their own: at least as long as the span of those levels, whose
// slots are then distinct.
func (s *Store) widen(t int) {
	lo, hi := t, t
	for _, lv := range s.levels[:s.live] {
		lo, hi = min(lo, lv.t), max(hi, lv.t)
	}
	n := max(hi-lo+1, 2*len(s.ring), s.Interval+2)
	s.ring = slices.Grow(s.ring[:0], n)[:n]
	for i := range s.ring {
		s.ring[i] = -1
	}
	for i, lv := range s.levels[:s.live] {
		s.ring[s.slot(lv.t)] = i
	}
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

// record caches the DOMAIN of each field's cyclic buffer for logical time
// level t, right after the step (and its injection) that wrote Buf(t).
// Recording a cached level again overwrites it in place; a new level
// takes its buffers from the free-list prune and Begin fill, so a store
// allocates level buffers for its first segment only.
func (s *Store) record(t int) {
	i := s.find(t)
	if i < 0 {
		if len(s.ring) == 0 || s.ring[s.slot(t)] >= 0 {
			s.widen(t)
		}
		i = s.live
		if i == len(s.levels) {
			lv := level{bufs: make([][]float32, len(s.fields))}
			for fi := range s.fields {
				lv.bufs[fi] = make([]float32, s.domain(fi).Size())
			}
			s.levels = append(s.levels, lv)
		}
		s.levels[i].t = t
		s.ring[s.slot(t)] = i
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

// load makes the DOMAIN of each field's cyclic buffer Buf(t) hold cached
// level t, unless it already does (see Load).
func (s *Store) load(t int) error {
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

// prune drops cached levels outside [lo, hi], bounding the cache to the
// segment the reverse sweep is consuming. Their buffers go to the
// free-list.
func (s *Store) prune(lo, hi int) {
	for i := 0; i < s.live; {
		if t := s.levels[i].t; t < lo || t > hi {
			s.ring[s.slot(t)] = -1
			s.live--
			s.levels[i], s.levels[s.live] = s.levels[s.live], s.levels[i]
			if i < s.live {
				s.ring[s.slot(s.levels[i].t)] = i
			}
			continue
		}
		i++
	}
}
