package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// autotuneReport builds a two-scenario report whose first scenario carries
// the given chosen-vs-best ratio.
func autotuneReport(host HostFingerprint, ratio float64, bitExact bool) AutotuneReport {
	return AutotuneReport{Host: host, Scenarios: []AutotuneScenario{
		{Name: "acoustic", BitExact: bitExact, Chosen: AutotuneChoice{RatioVsBest: ratio}},
		{Name: "acoustic-dmp4", BitExact: true, Chosen: AutotuneChoice{RatioVsBest: 1}},
	}}
}

func TestCheckAutotune(t *testing.T) {
	host := hostFingerprint()
	both := map[string]bool{"autotune-exact": true, "autotune-timing": true}
	allThree := autotuneReport(host, 1.16, false)
	allThree.Scenarios[1].Chosen.RatioVsBest = 0.99
	unchosen := autotuneReport(host, 1, true)
	unchosen.Scenarios[1].Chosen = AutotuneChoice{}
	for _, tc := range []struct {
		name   string
		report AutotuneReport
		groups map[string]bool
		want   []string // one substring per expected violation, in order
	}{
		{"clean", autotuneReport(host, 1.05, true), both, nil},
		{"host-less", autotuneReport(HostFingerprint{}, 1, true), both, []string{"no host block"}},
		{"host-less, timing only", autotuneReport(HostFingerprint{}, 1, true),
			map[string]bool{"autotune-timing": true}, []string{"no host block"}},
		{"search beyond 15%", autotuneReport(host, 1.16, true), both,
			[]string{"acoustic: chosen.ratio_vs_best = 1.160"}},
		{"search ratio below 1", autotuneReport(host, 0.99, true), map[string]bool{"autotune-exact": true},
			[]string{"acoustic: chosen.ratio_vs_best = 0.990"}},
		{"all three", allThree, both,
			[]string{"bit_exact = false", "acoustic: chosen.ratio_vs_best = 1.160", "acoustic-dmp4: chosen.ratio_vs_best = 0.990"}},
		{"missing chosen", unchosen, map[string]bool{"autotune-timing": true},
			[]string{"acoustic-dmp4: missing chosen"}},
		{"timing not selected", autotuneReport(host, 1.16, true),
			map[string]bool{"autotune-exact": true}, nil},
		{"one scenario", AutotuneReport{Host: host, Scenarios: autotuneReport(host, 1, true).Scenarios[:1]}, both,
			[]string{"1 scenarios, want >= 2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_autotune.json")
			if err := writeJSON(path, &tc.report); err != nil {
				t.Fatal(err)
			}
			got := checkAutotune(path, tc.groups)
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(got[i], want) {
					t.Errorf("violation %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}

func TestRunCheckErrors(t *testing.T) {
	dir := t.TempDir()
	if err := runCheck(dir, "exec"); err == nil || !strings.Contains(err.Error(), `unknown check group "exec"`) {
		t.Errorf("removed group: err = %v, want unknown check group", err)
	}
	if err := runCheck(dir, ""); err == nil || !strings.Contains(err.Error(), "1 perf/correctness gate(s) violated") {
		t.Errorf("missing report: err = %v, want one violation", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_autotune.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := checkAutotune(filepath.Join(dir, "BENCH_autotune.json"), nil); len(got) != 1 || !strings.Contains(got[0], "malformed JSON") {
		t.Errorf("malformed report: violations = %q", got)
	}
}

// The schema fixture, a real -exp autotune report from a 2-vCPU host,
// passes the hard gates and names its host; the same report without its
// host block is rejected. Its timings are that host's and are not gated.
func TestCheckedInAutotuneReport(t *testing.T) {
	const fixture = "testdata/BENCH_autotune.json"
	exact := map[string]bool{"autotune-exact": true}
	if got := checkAutotune(fixture, exact); len(got) != 0 {
		t.Errorf("%s: %q", fixture, got)
	}
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "host")
	path := filepath.Join(t.TempDir(), "BENCH_autotune.json")
	if err := writeJSON(path, raw); err != nil {
		t.Fatal(err)
	}
	if got := checkAutotune(path, exact); len(got) != 1 || !strings.Contains(got[0], "no host block") {
		t.Errorf("host-less report: violations = %q, want the host violation", got)
	}
}
