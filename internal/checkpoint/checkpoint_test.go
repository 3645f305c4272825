package checkpoint

import (
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
)

func testField(t *testing.T) *field.TimeFunction { return fieldOf(t, 6, 6) }

// fieldOf is a second-order-in-time field over a grid of the given shape.
func fieldOf(t *testing.T, shape ...int) *field.TimeFunction {
	t.Helper()
	g, err := grid.New(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := field.NewTimeFunction("u", g, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func fill(u *field.TimeFunction, t int, v float32) {
	for i := range u.Buf(t).Data {
		u.Buf(t).Data[i] = v + float32(i)
	}
}

// domainOffsets lists the flat offsets of u's DOMAIN points. Data[0] is
// a halo corner, which a cached level does not keep.
func domainOffsets(u *field.TimeFunction) []int {
	var offs []int
	r := u.DomainRegion()
	for i := r.Lo[0]; i < r.Hi[0]; i++ {
		for j := r.Lo[1]; j < r.Hi[1]; j++ {
			offs = append(offs, u.Buf(0).Index([]int{i, j}))
		}
	}
	return offs
}

func TestSaveRestoreRoundtrip(t *testing.T) {
	u := testField(t)
	s := New(4, &u.Function)
	fill(u, 0, 1)
	fill(u, 1, 100)
	fill(u, 2, 10000)
	s.Save(8) // step 8 reads Buf(7) = Bufs[1] and Buf(8) = Bufs[2]
	// Clobber and restore.
	for b := 0; b < 3; b++ {
		u.Buf(b).Fill(-1)
	}
	if err := s.Restore(8); err != nil {
		t.Fatal(err)
	}
	d0 := domainOffsets(u)[0]
	for b := 1; b < 3; b++ {
		base := [3]float32{1, 100, 10000}[b]
		if got, want := u.Buf(b).Data[d0], base+float32(d0); got != want {
			t.Fatalf("buf %d: got %v want %v", b, got, want)
		}
		// Snapshots keep halos: the whole buffer comes back.
		for i, got := range u.Buf(b).Data {
			if want := base + float32(i); got != want {
				t.Fatalf("buf %d [%d]: got %v want %v", b, i, got, want)
			}
		}
	}
	// Step 8 overwrites Buf(9) = Bufs[0]: it is neither kept nor restored.
	for i, got := range u.Buf(9).Data {
		if got != -1 {
			t.Fatalf("Restore(8) wrote Buf(9)[%d] = %v, want it left at -1", i, got)
		}
	}
	if s.Stats.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", s.Stats.Snapshots)
	}
	wantBytes := int64(2 * 4 * len(u.Buf(0).Data))
	if s.Stats.SnapshotBytes != wantBytes {
		t.Fatalf("snapshot bytes = %d, want %d", s.Stats.SnapshotBytes, wantBytes)
	}
}

func TestSaveIsIdempotentInStats(t *testing.T) {
	u := testField(t)
	s := New(2, &u.Function)
	fill(u, 0, 5)
	s.Save(0)
	fill(u, 0, 9)
	s.Save(0)
	if s.Stats.Snapshots != 1 {
		t.Fatalf("re-saving a step must not double-count: %d", s.Stats.Snapshots)
	}
	// The second save overwrote the first in place.
	u.Buf(0).Fill(-1)
	if err := s.Restore(0); err != nil {
		t.Fatal(err)
	}
	if got := u.Buf(0).Data[0]; got != 9 {
		t.Fatalf("restored %v, want the re-saved 9", got)
	}
}

// TestSaveIfDueInterval: the forward pass of an nt-step run snapshots
// the multiples of the interval at or below its cached tail, nt-k-1.
func TestSaveIfDueInterval(t *testing.T) {
	u := testField(t)
	s := New(3, &u.Function)
	s.Begin(14) // the tail is 10
	for t := 1; t <= 14; t++ {
		s.Keep(t)
	}
	if s.Stats.Snapshots != 4 {
		t.Fatalf("%d snapshots, want 4 (steps 0, 3, 6, 9)", s.Stats.Snapshots)
	}
	for step := 0; step <= 14; step++ {
		got, err := s.snapshotAtOrBefore(step)
		if want := min(step/3*3, 9); err != nil || got != want {
			t.Fatalf("snapshot at or before %d = %d (%v), want %d", step, got, err, want)
		}
	}
}

func TestSnapshotAtOrBefore(t *testing.T) {
	u := testField(t)
	s := New(4, &u.Function)
	s.Save(0)
	s.Save(4)
	s.Save(8)
	for _, tc := range []struct{ q, want int }{{0, 0}, {3, 0}, {4, 4}, {7, 4}, {11, 8}} {
		got, err := s.snapshotAtOrBefore(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("snapshotAtOrBefore(%d) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if _, err := s.snapshotAtOrBefore(-1); err == nil {
		t.Fatal("expected error below first snapshot")
	}
}

func TestLevelCacheCyclicAndPrune(t *testing.T) {
	u := testField(t)
	s := New(4, &u.Function)
	// Record levels 4..7; level t lives in cyclic buffer t%3.
	for lvl := 4; lvl <= 7; lvl++ {
		fill(u, lvl, float32(10*lvl))
		s.record(lvl)
	}
	// Negative levels address the trailing cyclic buffer.
	fill(u, -1, -5)
	s.record(-1)
	u.Buf(5).Fill(-3)
	if err := s.load(5); err != nil {
		t.Fatal(err)
	}
	offs := domainOffsets(u)
	for _, i := range offs {
		if got, want := u.Buf(5).Data[i], 50+float32(i); got != want {
			t.Fatalf("level 5 reload [%d] = %v, want %v", i, got, want)
		}
	}
	// A level is its DOMAIN: loading it leaves the halo alone.
	inDomain := map[int]bool{}
	for _, i := range offs {
		inDomain[i] = true
	}
	for i, got := range u.Buf(5).Data {
		if !inDomain[i] && got != -3 {
			t.Fatalf("load(5) wrote halo point %d = %v, want it left at -3", i, got)
		}
	}
	if err := s.load(-1); err != nil {
		t.Fatal(err)
	}
	if got, want := u.Buf(-1).Data[offs[0]], -5+float32(offs[0]); got != want {
		t.Fatalf("level -1 reload = %v, want %v", got, want)
	}
	s.prune(6, 7)
	if s.find(5) >= 0 || s.find(-1) >= 0 {
		t.Fatal("pruned levels still cached")
	}
	if s.find(6) < 0 || s.find(7) < 0 {
		t.Fatal("kept levels lost")
	}
	if err := s.load(5); err == nil {
		t.Fatal("expected error loading pruned level")
	}
}

// levelVal is the value sweep's steps write at level lvl's flat offset 0.
func levelVal(lvl int) float32 { return float32(1000 * (lvl + 2)) }

// sweep runs an nt-step gradient's schedule on s: a forward pass whose
// step t writes level t+1 (write, when not nil, stands for the step) and
// hands state t+1 to Keep, then a reverse sweep that asks Load for levels
// j-1..j+1 at j = nt-1..0 and replays missing steps the same way. check,
// when not nil, runs after each Load.
func sweep(s *Store, nt int, write, check func(int)) error {
	step := func(t int) {
		if write != nil {
			write(t + 1)
		}
		s.Keep(t + 1)
	}
	replay := func(from, to int) error {
		for t := from; t < to; t++ {
			step(t)
		}
		return nil
	}
	if write != nil {
		write(-1)
		write(0)
	}
	s.Begin(nt)
	for t := 0; t < nt; t++ {
		step(t)
	}
	for j := nt - 1; j >= 0; j-- {
		if err := s.Load(j-1, j+1, replay); err != nil {
			return err
		}
		if check != nil {
			check(j)
		}
	}
	return nil
}

// writeLevels returns the write of a sweep over u: level lvl's known
// values.
func writeLevels(u *field.TimeFunction) func(int) {
	return func(lvl int) { fill(u, lvl, levelVal(lvl)) }
}

// TestStoreRunsTheSchedule runs the schedule for every nt <= 100 and
// interval k <= nt+2, and holds it to the package doc: (nt-1)/k
// snapshots, nt-k-2·((nt-1)/k) replayed steps (one more when k divides
// nt-1, none when k >= nt or k <= 2), at most min(k, nt)+2 cached levels,
// and every Load leaves its levels' bits in the buffers.
func TestStoreRunsTheSchedule(t *testing.T) {
	u := fieldOf(t, 2, 2)
	offs := domainOffsets(u)
	levelBytes := int64(4 * len(offs))
	for nt := 1; nt <= 100; nt++ {
		for k := 1; k <= nt+2; k++ {
			s := New(k, &u.Function)
			err := sweep(s, nt, writeLevels(u), func(j int) {
				for lvl := j - 1; lvl <= j+1; lvl++ {
					for _, i := range offs {
						if got, want := u.Buf(lvl).Data[i], levelVal(lvl)+float32(i); got != want {
							t.Fatalf("nt=%d k=%d j=%d: Buf(%d)[%d] = %v, want %v", nt, k, j, lvl, i, got, want)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("nt=%d k=%d: %v", nt, k, err)
			}
			want := 0
			if k < nt && k > 2 {
				want = nt - k - 2*((nt-1)/k)
				if (nt-1)%k == 0 {
					want++
				}
			}
			if got := s.Stats.RecomputedSteps; got != want {
				t.Errorf("nt=%d k=%d: %d replayed steps, want %d", nt, k, got, want)
			}
			if got, want := s.Stats.Snapshots, (nt-1)/k; got != want {
				t.Errorf("nt=%d k=%d: %d snapshots, want %d", nt, k, got, want)
			}
			if got, want := s.Stats.LevelBytes, int64(min(k, nt)+2)*levelBytes; got > want {
				t.Errorf("nt=%d k=%d: level cache peaked at %d bytes, over min(k, nt)+2 levels = %d", nt, k, got, want)
			}
		}
	}
	// The survey shot's shape.
	s := New(35, &u.Function)
	if err := sweep(s, 96, writeLevels(u), nil); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats, (Stats{Snapshots: 2, SnapshotBytes: 2 * 2 * 4 * int64(len(u.Buf(0).Data)),
		LevelBytes: 37 * levelBytes, RecomputedSteps: 57}); got != want {
		t.Errorf("nt=96 k=35: stats %+v, want %+v", got, want)
	}
}

// TestLevelCacheThroughTwoSegments runs the schedule the way a gradient
// does over two replayed segments of interval 4, and holds every Load to
// the recorded DOMAIN bits whether it copied or found the level resident.
func TestLevelCacheThroughTwoSegments(t *testing.T) {
	const k, nt = 4, 12
	u := testField(t)
	s := New(k, &u.Function)
	offs := domainOffsets(u)
	d0 := offs[0]
	expect := func(what string, lvl int) {
		t.Helper()
		for _, i := range offs {
			if got, want := u.Buf(lvl).Data[i], levelVal(lvl)+float32(i); got != want {
				t.Fatalf("%s: Buf(%d)[%d] = %v, want level %d's %v", what, lvl, i, got, lvl, want)
			}
		}
	}
	// reload asks for levels j-1..j+1 again: all are cached, so nothing
	// is replayed.
	reload := func(j int) {
		t.Helper()
		if err := s.Load(j-1, j+1, func(from, to int) error {
			t.Fatalf("j=%d: cached levels replayed from %d to %d", j, from, to)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := sweep(s, nt, writeLevels(u), func(j int) {
		for lvl := j - 1; lvl <= j+1; lvl++ {
			expect("Load", lvl)
			// A resident level is not copied again: a write the store
			// cannot see survives the second Load.
			u.Buf(lvl).Data[d0] = -1
			reload(j)
			if got := u.Buf(lvl).Data[d0]; got != -1 {
				t.Fatalf("level %d was resident but Load copied it again (Data[%d] = %v)", lvl, d0, got)
			}
			u.Buf(lvl).Data[d0] = levelVal(lvl) + float32(d0)
			// Corrupt the buffer through the store — load the cached
			// level sharing it — then reload: a load wrongly skipped on
			// stale residency leaves the other level's bits behind.
			other := lvl + 3
			if s.find(other) < 0 {
				other = lvl - 3
			}
			if err := s.load(other); err != nil {
				t.Fatal(err)
			}
			expect("aliasing load", other)
			reload(j)
			expect("reload", lvl)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two segments, 4..6 and 0..2, each two levels short of the cached
	// levels above it.
	if s.Stats.RecomputedSteps != 4 {
		t.Errorf("replayed %d steps, want 4", s.Stats.RecomputedSteps)
	}
	if want := int64((k + 2) * 4 * len(offs)); s.Stats.LevelBytes != want {
		t.Errorf("level cache peaked at %d bytes, want k+2 DOMAIN levels = %d", s.Stats.LevelBytes, want)
	}
	// Restore(0) writes levels -1 and 0 into the buffers levels 2 and 3
	// are resident in, and leaves the one level 4 is resident in alone:
	// the next Load copies 2 and 3 again.
	reload(3)
	for lvl := -1; lvl <= 0; lvl++ {
		u.Buf(lvl).Fill(-7)
	}
	if err := s.Restore(0); err != nil {
		t.Fatal(err)
	}
	expect("Restore(0)", -1)
	expect("Restore(0)", 0)
	expect("Restore(0) leaves Buf(1)", 4)
	reload(3)
	for lvl := 2; lvl <= 4; lvl++ {
		expect("Load after Restore", lvl)
	}

	// Steady state: a segment's levels come from the ones the previous
	// segment's prune freed.
	if allocs := testing.AllocsPerRun(10, func() {
		s.prune(0, -1) // an empty window frees every level
		for lvl := 10; lvl < 10+k+2; lvl++ {
			s.record(lvl)
		}
	}); allocs != 0 {
		t.Errorf("recording a segment's %d levels after a prune allocates %v times, want 0", k+2, allocs)
	}
	if want := int64((k + 2) * 4 * len(offs)); s.Stats.LevelBytes != want {
		t.Errorf("reused levels grew LevelBytes to %d, want %d", s.Stats.LevelBytes, want)
	}
}

func TestDefaultInterval(t *testing.T) {
	for _, tc := range []struct {
		nt          int
		shape, halo []int
		want        int
	}{
		{0, []int{8, 8}, []int{2, 2}, 1},
		{1, []int{8, 8}, []int{2, 2}, 1},
		{8, []int{24, 24}, []int{2, 2}, 8},       // the dot test: nothing to recompute
		{40, []int{37, 37}, []int{2, 2}, 16},     // sqrt rule: 7
		{96, []int{128, 128}, []int{16, 16}, 35}, // survey-8shot; sqrt rule: 10
		{100, []int{64, 64, 64}, []int{8, 8, 8}, 41},
		{1000, []int{256, 256}, []int{8, 8}, 77}, // sqrt rule: 32
	} {
		if got := DefaultInterval(tc.nt, tc.shape, tc.halo); got != tc.want {
			t.Errorf("DefaultInterval(%d, %v, %v) = %d, want %d", tc.nt, tc.shape, tc.halo, got, tc.want)
		}
	}
}

// TestScheduleNeverCostsMore holds the schedule's arithmetic to the one it
// replaced, which cached only the levels above the last snapshot below nt
// and so snapshotted every multiple of k below nt and re-integrated every
// whole segment under it. For every explicit interval the schedule takes
// no more snapshots, recomputes no more steps and caches no more levels;
// the default interval's bound fits the sqrt(nt) interval's, and it
// recomputes no more than the sqrt(nt) interval did.
func TestScheduleNeverCostsMore(t *testing.T) {
	// The steps the store's own sweep replays, run once per nt and k.
	counts := map[[2]int]int{}
	recomputed := func(nt, k int) int {
		n, ok := counts[[2]int{nt, k}]
		if !ok {
			s := New(k)
			if err := sweep(s, nt, nil, nil); err != nil {
				t.Fatalf("nt=%d k=%d: %v", nt, k, err)
			}
			n = s.Stats.RecomputedSteps
			counts[[2]int{nt, k}] = n
		}
		return n
	}
	// Snapshot/level size ratios: no halo, the survey's 128² with 16-wide
	// halos, and a small grid with wide halos.
	for _, ratio := range []struct{ snap, level int64 }{{2, 1}, {204800, 65536}, {2 * 32 * 32, 16 * 16}} {
		for nt := 1; nt <= 400; nt++ {
			for k := 1; k <= nt+2; k++ {
				last := (nt - 1) / k * k // the old schedule's last snapshot
				oldSnaps, oldRecomputed := (nt-1)/k+1, last
				oldLevels := nt - last + 2
				if last > 0 {
					oldLevels = k + 2
				}
				if got := snapshots(nt, k); got > oldSnaps {
					t.Fatalf("nt=%d k=%d: %d snapshots, the old schedule took %d", nt, k, got, oldSnaps)
				}
				if recomputed(nt, k) > oldRecomputed {
					t.Fatalf("nt=%d k=%d: %d recomputed steps, the old schedule %d", nt, k, recomputed(nt, k), oldRecomputed)
				}
				if got := levels(nt, k); got > oldLevels {
					t.Fatalf("nt=%d k=%d: %d cached levels, the old schedule %d", nt, k, got, oldLevels)
				}
			}
			k, sq := defaultInterval(nt, ratio.snap, ratio.level), sqrtInterval(nt)
			if b, budget := bound(nt, k, ratio.snap, ratio.level), sqrtBound(nt, ratio.snap, ratio.level); b > budget {
				t.Fatalf("nt=%d ratio %d/%d: default k=%d holds %d, over the sqrt(nt) bound %d", nt, ratio.snap, ratio.level, k, b, budget)
			}
			if k < sq || k > nt {
				t.Fatalf("nt=%d ratio %d/%d: default k=%d outside [sqrt interval %d, nt]", nt, ratio.snap, ratio.level, k, sq)
			}
			if got, old := recomputed(nt, k), (nt-1)/sq*sq; got > old {
				t.Fatalf("nt=%d ratio %d/%d: default k=%d recomputes %d steps, the sqrt(nt) interval %d", nt, ratio.snap, ratio.level, k, got, old)
			}
		}
	}
}

// TestNewPanicsOnNonPositiveInterval reaches New's invariant: every caller
// passes a positive interval, so a non-positive one is a bug, not an
// input to report.
func TestNewPanicsOnNonPositiveInterval(t *testing.T) {
	u := testField(t)
	for _, k := range []int{0, -3} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("New(%d) did not panic", k)
				}
			}()
			New(k, &u.Function)
		}()
	}
}

// TestResetForgetsAndReuses: after Begin a store serves nothing of the
// run before, reports for the next run exactly what a fresh store would,
// and takes that run's snapshot and level buffers from the last one's.
func TestResetForgetsAndReuses(t *testing.T) {
	u := testField(t)
	run := func(s *Store) {
		if err := sweep(s, 12, writeLevels(u), nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(4, &u.Function)
	run(fresh)

	s := New(4, &u.Function)
	run(s)
	s.Begin(2) // a run with nothing below its tail: no snapshot but step 0
	if got := s.Stats; got != (Stats{LevelBytes: got.LevelBytes}) {
		t.Errorf("stats after Begin = %+v, want nothing but the initial levels", got)
	}
	if _, err := s.snapshotAtOrBefore(8); err == nil {
		t.Error("a begun store still serves a snapshot of the run before")
	}
	if s.find(8) >= 0 {
		t.Error("a begun store still holds a cached level of the run before")
	}
	if n := testing.AllocsPerRun(3, func() { run(s) }); n != 0 {
		t.Errorf("a run through a reused store allocates %v times, want 0", n)
	}
	if s.Stats != fresh.Stats {
		t.Errorf("reused store reports %+v, a fresh one %+v", s.Stats, fresh.Stats)
	}
}
