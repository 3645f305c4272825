package main

import (
	"math"
	"testing"
	"time"
)

func TestCutWindowsSkipsWarmupAndPartialTail(t *testing.T) {
	// 11 steps of 10 ms, then one slow step: stamps[i] is the end of step i.
	base := time.Unix(0, 0)
	var stamps []time.Time
	at := base
	for i := 0; i < 12; i++ {
		d := 10 * time.Millisecond
		if i == 7 {
			d = 50 * time.Millisecond
		}
		at = at.Add(d)
		stamps = append(stamps, at)
	}
	got := cutWindows(stamps, 3)
	// Steps 0-2 are warm-up; windows are steps 3-5, 6-8, 9-11.
	want := []float64{0.030, 0.070, 0.030}
	if len(got) != len(want) {
		t.Fatalf("got %d windows %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("window %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := steadySteps(12, 3); n != 9 {
		t.Errorf("steadySteps(12,3) = %d, want 9", n)
	}
	// 13 stamps: the 13th step is a partial window and is dropped.
	if n := len(cutWindows(append(stamps, at.Add(time.Millisecond)), 3)); n != 3 {
		t.Errorf("partial tail kept: %d windows", n)
	}
	if steadySteps(13, 3) != 9 || steadySteps(5, 3) != 0 || steadySteps(1, 0) != 0 {
		t.Errorf("steadySteps edge cases wrong")
	}
	if cutWindows(stamps, 0) != nil || len(cutWindows(stamps[:5], 3)) != 0 {
		t.Errorf("degenerate inputs must give no windows")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("empty median must be NaN")
	}
	if f := fastest([]float64{3, 1, 2}); f != 1 {
		t.Errorf("fastest = %v, want 1", f)
	}
	if !math.IsNaN(fastest(nil)) {
		t.Errorf("empty fastest must be NaN")
	}
}

func TestKeepFastestAndListSchedule(t *testing.T) {
	best := keepFastest(nil, []float64{3, 5, 2})
	best = keepFastest(best, []float64{4, 1, 2})
	if len(best) != 3 || best[0] != 3 || best[1] != 1 || best[2] != 2 {
		t.Errorf("keepFastest = %v, want [3 1 2]", best)
	}
	// Two workers, jobs in order: 4|1, then 1 goes to the second (free at
	// 1), then 3 to the second again (free at 2): 4 | 1+1+3.
	if w := listSchedule([]float64{4, 1, 1, 3}, 2); w != 5 {
		t.Errorf("listSchedule = %v, want 5", w)
	}
	if w := listSchedule([]float64{1, 2, 3}, 1); w != 6 {
		t.Errorf("one worker runs the jobs back to back, got %v", w)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n       int
		pct, at float64
	}{
		{39, 0, 20},     // 25 % of 39 is fewer than ten: unresolved, median
		{40, 75, 30},    // exactly ten beyond p75
		{200, 95, 190},  // ten beyond p95
		{1000, 99, 990}, // ten beyond p99
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.at {
			t.Errorf("n=%d: tail = (p%v, %v), want (p%v, %v)", c.n, pct, v, c.pct, c.at)
		}
	}
}

func TestPairRatiosUseAdjacentPairsOnly(t *testing.T) {
	got := pairRatios([]float64{2, 6, 9}, []float64{1, 3})
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("pairRatios = %v, want [2 2]", got)
	}
	if got := pairRatios([]float64{1}, []float64{0}); len(got) != 0 {
		t.Errorf("zero denominator must be dropped, got %v", got)
	}
	// dmp_eff of a perfectly scaling pair: serial 2 ms, 2-rank 1 ms.
	if eff := median(pairRatios([]float64{2e-3}, []float64{1e-3})) * 0.5; eff != 1 {
		t.Errorf("dmp_eff = %v, want 1", eff)
	}
}

func TestFailedFrac(t *testing.T) {
	if failedFrac(0, 0) != 0 || failedFrac(0, 7) != 0 {
		t.Errorf("no failures must give 0")
	}
	if f := failedFrac(1, 4); f != 0.25 {
		t.Errorf("failedFrac(1,4) = %v", f)
	}
}
