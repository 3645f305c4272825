package main

import (
	"math"
	"sort"
	"time"
)

// cutWindows cuts steady windows of w consecutive steps out of per-step
// end timestamps (stamps[i] is the end of step i) and returns each
// window's wall seconds. The first w steps are warm-up and are skipped;
// a trailing partial window is dropped.
func cutWindows(stamps []time.Time, w int) []float64 {
	if w <= 0 {
		return nil
	}
	var out []float64
	for end := 2*w - 1; end < len(stamps); end += w {
		out = append(out, stamps[end].Sub(stamps[end-w]).Seconds())
	}
	return out
}

// steadySteps is the number of steps cutWindows covers for nt stamps.
func steadySteps(nt, w int) int {
	if w <= 0 || nt < 2*w {
		return 0
	}
	return (nt/w - 1) * w
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of an unsorted sample (NaN when empty).
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// fastest is the smallest of an unsorted sample (NaN when empty). The
// end-to-end timings are taken from it, not from the median: on a shared
// host a neighbour can only add time to a sample, never remove any, and
// it does so in phases longer than a run, so between identical runs the
// median moves by a third while the fastest sample moves by a few per
// cent. It is the time the program takes when the host leaves it alone.
func fastest(v []float64) float64 { return quantile(sorted(v), 0) }

// keepFastest lowers best[i] to v[i] wherever v[i] is faster (best
// starts empty) and returns it: the fastest run of each part so far.
func keepFastest(best, v []float64) []float64 {
	if best == nil {
		return append(best, v...)
	}
	for i := range best {
		best[i] = math.Min(best[i], v[i])
	}
	return best
}

// listSchedule is the wall time of jobs handed out in order to whichever
// of `workers` workers is free first, as shotsched hands out shots.
func listSchedule(jobs []float64, workers int) float64 {
	free := make([]float64, max(1, workers))
	for _, j := range jobs {
		next := 0
		for w := range free {
			if free[w] < free[next] {
				next = w
			}
		}
		free[next] += j
	}
	return quantile(sorted(free), 1)
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, and which percentile that is. With fewer than
// forty samples no candidate qualifies and it returns (0, median) — the
// tail is then not resolved and the caller says so.
func tail(v []float64) (pct, value float64) {
	s := sorted(v)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 99.9/100*10000 is 9990.000000000002
		if idx < len(s) && len(s)-idx >= 10 {
			return p, s[idx-1]
		}
	}
	return 0, quantile(s, 0.5)
}

// pairRatios divides a[i] by b[i] over the adjacent pairs both slices
// hold. Ratios are only ever taken between adjacent reps because this
// host drifts over seconds.
func pairRatios(a, b []float64) []float64 {
	n := min(len(a), len(b))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if b[i] > 0 {
			out = append(out, a[i]/b[i])
		}
	}
	return out
}

// failedFrac is failed checks over checks attempted (0 when none ran).
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
