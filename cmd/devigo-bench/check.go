package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// autotuneGates bounds chosen.ratio_vs_best, the search policy's pick
// against the exhaustive best, for every scenario of BENCH_autotune.json.
// The exact group must hold on any host (together with bit_exact across
// every swept configuration): the figure is a true ratio-vs-best, never
// below 1. The timing group is measurement-dependent — within 15% of the
// exhaustive best — and is selectable on its own so CI can retry it on a
// preempted shared runner without ever retrying a correctness failure.
var autotuneGates = []struct {
	group    string
	min, max float64
}{
	{"autotune-exact", 1, math.Inf(1)},
	{"autotune-timing", 0, 1.15},
}

// runCheck is the -check subcommand: it holds the BENCH_autotune.json in
// dir to the gate groups `only` selects (comma-separated; "autotune" is
// both groups and the default), reports every violation rather than just
// the first, and returns an error on any.
func runCheck(dir, only string) error {
	if only == "" {
		only = "autotune"
	}
	groups := map[string]bool{}
	for _, g := range strings.Split(only, ",") {
		switch g = strings.TrimSpace(g); g {
		case "autotune":
			groups["autotune-exact"], groups["autotune-timing"] = true, true
		case "autotune-exact", "autotune-timing":
			groups[g] = true
		default:
			return fmt.Errorf("unknown check group %q (valid: autotune, autotune-exact, autotune-timing)", g)
		}
	}
	path := filepath.Join(dir, "BENCH_autotune.json")
	violations := checkAutotune(path, groups)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "devigo-bench: GATE FAILED: %s: %s\n", filepath.Base(path), v)
		}
		return fmt.Errorf("%d perf/correctness gate(s) violated in %s", len(violations), dir)
	}
	fmt.Printf("devigo-bench: all gates passed (%s)\n", path)
	return nil
}

// checkAutotune returns one message per gate the report at path violates.
// A missing or malformed report is a violation (the gates exist to be
// checked, not skipped), and so — whatever the group — is a report that
// does not say which host measured it.
func checkAutotune(path string, groups map[string]bool) (violations []string) {
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	var r AutotuneReport
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
		return
	}
	if err := json.Unmarshal(data, &r); err != nil {
		fail("malformed JSON: %v", err)
		return
	}
	if r.Host == (HostFingerprint{}) {
		fail("no host block: a timing without the host that measured it does not count")
	}
	if groups["autotune-exact"] && len(r.Scenarios) < 2 {
		fail("%d scenarios, want >= 2 (serial + DMP)", len(r.Scenarios))
	}
	for _, sc := range r.Scenarios {
		if groups["autotune-exact"] && !sc.BitExact {
			fail("scenario %s: bit_exact = false", sc.Name)
		}
		for _, g := range autotuneGates {
			if !groups[g.group] {
				continue
			}
			if sc.Chosen == (AutotuneChoice{}) {
				fail("scenario %s: missing chosen", sc.Name)
			} else if ratio := sc.Chosen.RatioVsBest; ratio < g.min || ratio > g.max {
				fail("scenario %s: chosen.ratio_vs_best = %.3f, want within [%g, %g]",
					sc.Name, ratio, g.min, g.max)
			}
		}
	}
	return violations
}
