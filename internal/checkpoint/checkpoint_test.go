package checkpoint

import (
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
)

func testField(t *testing.T) *field.TimeFunction {
	t.Helper()
	g, err := grid.New([]int{6, 6}, nil)
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
		u.Bufs[b].Fill(-1)
	}
	if err := s.Restore(8); err != nil {
		t.Fatal(err)
	}
	d0 := domainOffsets(u)[0]
	for b := 1; b < 3; b++ {
		base := [3]float32{1, 100, 10000}[b]
		if got, want := u.Bufs[b].Data[d0], base+float32(d0); got != want {
			t.Fatalf("buf %d: got %v want %v", b, got, want)
		}
		// Snapshots keep halos: the whole buffer comes back.
		for i, got := range u.Bufs[b].Data {
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
	wantBytes := int64(2 * 4 * len(u.Bufs[0].Data))
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

func TestSaveIfDueInterval(t *testing.T) {
	u := testField(t)
	s := New(3, &u.Function)
	for t := 0; t <= 10; t++ {
		s.SaveIfDue(t)
	}
	if s.Stats.Snapshots != 4 {
		t.Fatalf("%d snapshots, want 4 (steps 0, 3, 6, 9)", s.Stats.Snapshots)
	}
	for step := 0; step <= 10; step++ {
		got, err := s.SnapshotAtOrBefore(step)
		if err != nil || got != step/3*3 {
			t.Fatalf("snapshot at or before %d = %d (%v), want %d", step, got, err, step/3*3)
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
		got, err := s.SnapshotAtOrBefore(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("SnapshotAtOrBefore(%d) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if _, err := s.SnapshotAtOrBefore(-1); err == nil {
		t.Fatal("expected error below first snapshot")
	}
}

func TestLevelCacheCyclicAndPrune(t *testing.T) {
	u := testField(t)
	s := New(4, &u.Function)
	// Record levels 4..7; level t lives in cyclic buffer t%3.
	for lvl := 4; lvl <= 7; lvl++ {
		fill(u, lvl, float32(10*lvl))
		s.RecordLevel(lvl)
	}
	// Negative levels address the trailing cyclic buffer.
	fill(u, -1, -5)
	s.RecordLevel(-1)
	u.Buf(5).Fill(-3)
	if err := s.LoadLevel(5); err != nil {
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
			t.Fatalf("LoadLevel(5) wrote halo point %d = %v, want it left at -3", i, got)
		}
	}
	if err := s.LoadLevel(-1); err != nil {
		t.Fatal(err)
	}
	if got, want := u.Buf(-1).Data[offs[0]], -5+float32(offs[0]); got != want {
		t.Fatalf("level -1 reload = %v, want %v", got, want)
	}
	s.PruneLevels(6, 7)
	if s.HasLevel(5) || s.HasLevel(-1) {
		t.Fatal("pruned levels still cached")
	}
	if !s.HasLevel(6) || !s.HasLevel(7) {
		t.Fatal("kept levels lost")
	}
	if err := s.LoadLevel(5); err == nil {
		t.Fatal("expected error loading pruned level")
	}
}

// TestLevelCacheThroughTwoSegments drives the store the way the reverse
// sweep does — restore a snapshot, prune, re-integrate the segment forward
// recording every level, then consume levels j-1, j, j+1 downwards — over
// both segments of an 8-step run with interval 4, and holds every
// LoadLevel to the recorded DOMAIN bits whether it copied or found the
// level resident.
func TestLevelCacheThroughTwoSegments(t *testing.T) {
	const k, nt = 4, 8
	u := testField(t)
	s := New(k, &u.Function)
	offs := domainOffsets(u)
	d0 := offs[0]
	val := func(lvl int) float32 { return float32(1000 * (lvl + 2)) }
	step := func(t int) { fill(u, t+1, val(t+1)) } // a forward step writes Buf(t+1)
	expect := func(what string, lvl int) {
		t.Helper()
		for _, i := range offs {
			if got, want := u.Buf(lvl).Data[i], val(lvl)+float32(i); got != want {
				t.Fatalf("%s: Buf(%d)[%d] = %v, want level %d's %v", what, lvl, i, got, lvl, want)
			}
		}
	}
	load := func(what string, lvl int) {
		t.Helper()
		if err := s.LoadLevel(lvl); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		expect(what, lvl)
	}

	fill(u, -1, val(-1))
	fill(u, 0, val(0))
	s.SaveIfDue(0)
	for t := 0; t < nt; t++ {
		step(t)
		s.SaveIfDue(t + 1)
	}

	for _, seg := range []struct{ snap, top int }{{4, 8}, {0, 4}} {
		if err := s.Restore(seg.snap); err != nil {
			t.Fatal(err)
		}
		s.PruneLevels(seg.snap-1, seg.snap+k)
		s.RecordLevel(seg.snap - 1)
		s.RecordLevel(seg.snap)
		for t := seg.snap; t < seg.snap+k; t++ {
			step(t)
			s.RecordLevel(t + 1)
		}
		for j := seg.top - 1; j >= seg.snap; j-- {
			for _, lvl := range []int{j - 1, j, j + 1} {
				load("first load", lvl)
				// A resident level is not copied again: a write the store
				// cannot see survives the second load.
				u.Buf(lvl).Data[d0] = -1
				if err := s.LoadLevel(lvl); err != nil {
					t.Fatal(err)
				}
				if got := u.Buf(lvl).Data[d0]; got != -1 {
					t.Fatalf("level %d was resident but LoadLevel copied it again (Data[%d] = %v)", lvl, d0, got)
				}
				u.Buf(lvl).Data[d0] = val(lvl) + float32(d0)
				// Corrupt the buffer through the store — load the cached
				// level sharing it — then reload: a load wrongly skipped on
				// stale residency leaves the other level's bits behind.
				other := lvl + 3
				if !s.HasLevel(other) {
					other = lvl - 3
				}
				load("aliasing load", other)
				load("reload", lvl)
			}
		}
		if seg.snap == 0 {
			break
		}
		// Restore rewrites Buf(snap-1) and Buf(snap) whole, halos
		// included, and leaves Buf(snap+1), which step snap overwrites,
		// alone. Nothing stays resident, so the next loads copy.
		for _, lvl := range []int{seg.snap - 1, seg.snap} {
			u.Buf(lvl).Fill(-7)
		}
		kept := append([]float32(nil), u.Buf(seg.snap+1).Data...)
		if err := s.Restore(seg.snap); err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []int{seg.snap - 1, seg.snap} {
			for i, got := range u.Buf(lvl).Data {
				if want := val(lvl) + float32(i); got != want {
					t.Fatalf("restored snapshot: Buf(%d)[%d] = %v, want %v", lvl, i, got, want)
				}
			}
		}
		for i, got := range u.Buf(seg.snap + 1).Data {
			if got != kept[i] {
				t.Fatalf("Restore(%d) wrote Buf(%d)[%d] = %v, want it left at %v", seg.snap, seg.snap+1, i, got, kept[i])
			}
		}
		for _, lvl := range []int{seg.snap - 1, seg.snap, seg.snap + 1} {
			load("load after Restore", lvl)
		}
	}
	if want := int64((k + 2) * 4 * len(offs)); s.Stats.LevelBytes != want {
		t.Errorf("level cache peaked at %d bytes, want k+2 DOMAIN levels = %d", s.Stats.LevelBytes, want)
	}

	// Steady state: a segment's levels come from the ones the previous
	// segment's prune freed.
	if allocs := testing.AllocsPerRun(10, func() {
		s.PruneLevels(0, -1) // an empty window frees every level
		for lvl := 10; lvl < 10+k+2; lvl++ {
			s.RecordLevel(lvl)
		}
	}); allocs != 0 {
		t.Errorf("recording a segment's %d levels after a prune allocates %v times, want 0", k+2, allocs)
	}
	if want := int64((k + 2) * 4 * len(offs)); s.Stats.LevelBytes != want {
		t.Errorf("reused levels grew LevelBytes to %d, want %d", s.Stats.LevelBytes, want)
	}
}

func TestDefaultInterval(t *testing.T) {
	for _, tc := range []struct{ nt, want int }{{0, 1}, {1, 1}, {4, 2}, {10, 4}, {100, 10}, {101, 11}} {
		if got := DefaultInterval(tc.nt); got != tc.want {
			t.Fatalf("DefaultInterval(%d) = %d, want %d", tc.nt, got, tc.want)
		}
	}
}

// TestResetForgetsAndReuses: after Reset a store serves nothing of the
// run before, reports for the next run exactly what a fresh store would,
// and takes that run's snapshot and level buffers from the last one's.
func TestResetForgetsAndReuses(t *testing.T) {
	u := testField(t)
	run := func(s *Store) {
		for step := 0; step < 9; step++ {
			fill(u, step, float32(step))
			s.SaveIfDue(step)
			s.RecordLevel(step)
		}
		s.PruneLevels(5, 8)
		s.RecordLevel(9)
	}
	fresh := New(4, &u.Function)
	run(fresh)

	s := New(4, &u.Function)
	run(s)
	s.Reset()
	if _, err := s.SnapshotAtOrBefore(8); err == nil {
		t.Error("a reset store still serves a snapshot of the run before")
	}
	if s.HasLevel(8) {
		t.Error("a reset store still holds a cached level of the run before")
	}
	if s.Stats != (Stats{}) {
		t.Errorf("stats after Reset = %+v, want zero", s.Stats)
	}
	if n := testing.AllocsPerRun(3, func() {
		s.Reset()
		run(s)
	}); n != 0 {
		t.Errorf("a run through a reset store allocates %v times, want 0", n)
	}
	if s.Stats != fresh.Stats {
		t.Errorf("reused store reports %+v, a fresh one %+v", s.Stats, fresh.Stats)
	}
	if err := s.LoadLevel(9); err != nil {
		t.Fatal(err)
	}
}
