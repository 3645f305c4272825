package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transcript loads text captured from `bash bench/run.sh`.
func transcript(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// scaled returns the transcript with one metric of one workload's result
// line multiplied by factor.
func scaled(t *testing.T, text, workload, metric string, factor float64) string {
	t.Helper()
	lines := strings.Split(text, "\n")
	in := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "== "):
			in = strings.Fields(line)[1] == workload
		case in && strings.HasPrefix(line, "{"):
			var res map[string]any
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			m := res["metrics"].(map[string]any)[metric].(map[string]any)
			m["value"] = m["value"].(float64) * factor
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(out)
			return strings.Join(lines, "\n")
		}
	}
	t.Fatalf("no result line for workload %s", workload)
	return ""
}

// ingest runs the observatory on text against the history in dir.
func ingest(t *testing.T, dir, text string) (stdout string, err error) {
	t.Helper()
	var out bytes.Buffer
	err = runObservatory(strings.NewReader(text), &out, dir, filepath.Join(dir, "BENCH_history.json"))
	return out.String(), err
}

func readHistory(t *testing.T, dir string) History {
	t.Helper()
	h, err := loadHistory(filepath.Join(dir, "BENCH_history.json"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestObservatoryIngest(t *testing.T) {
	dir := t.TempDir()
	stdout, err := ingest(t, dir, transcript(t, "run_all_trace0.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "no same-host baseline yet") || !strings.Contains(stdout, "recording only") {
		t.Errorf("first run should only record:\n%s", stdout)
	}
	h := readHistory(t, dir)
	if len(h.Entries) != 1 {
		t.Fatalf("history entries = %d, want 1", len(h.Entries))
	}
	e := h.Entries[0]
	if key := hostKey(e.Host); strings.Contains(key, "commit") || !strings.Contains(key, `"cpu_model"`) || !strings.Contains(key, `"nproc":2`) {
		t.Errorf("host key = %s, want the host line minus commit", key)
	}
	for _, w := range []string{"stream-2048", "strong-2rank", "deep-2rank", "survey-8shot", "construct-cold"} {
		for _, m := range []string{"useful_gpts_per_s", "setup_s", "rss_mb"} {
			if e.Workloads[w][m] <= 0 {
				t.Errorf("history lacks %s %s: %v", w, m, e.Workloads[w])
			}
		}
	}
	if got := e.Workloads["strong-2rank"]["useful_gpts_per_s"]; got != 0.24546177927953658 {
		t.Errorf("strong-2rank useful_gpts_per_s = %v, want the result line's value", got)
	}

	// A per-layer run carries no end-to-end metric: every metric on the
	// line is stored, nothing is gated, and the per-layer panels render.
	stdout, err = ingest(t, dir, transcript(t, "run_strong_trace1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "no end-to-end metric") {
		t.Errorf("trace-1 run should say it gates nothing:\n%s", stdout)
	}
	h = readHistory(t, dir)
	layers := h.Entries[1].Workloads["strong-2rank"]
	if len(h.Entries) != 2 || len(layers) != 68 || layers["halo.msgs_per_step"] != 1 || layers["native.instrs_per_point"] != 32 {
		t.Errorf("trace-1 entry: %d entries, %d metrics: %v", len(h.Entries), len(layers), layers)
	}
	page, err := os.ReadFile(filepath.Join(dir, "observatory.html"))
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range []string{"Roofline", "Halo traffic", "Cost-model error"} {
		if !strings.Contains(string(page), panel) {
			t.Errorf("observatory.html lacks the %q panel", panel)
		}
	}
	if strings.Contains(string(page), "Same-host baselines") {
		t.Error("observatory.html shows a baseline table for a run without end-to-end metrics")
	}
}

func TestObservatoryRegressionGate(t *testing.T) {
	base := transcript(t, "run_all_trace0.txt")
	for _, tc := range []struct {
		name      string
		second    func(t *testing.T) string
		regressed string // "workload metric" expected REGRESSED, "" = none
		baselined bool
	}{
		{"same run", func(*testing.T) string { return base }, "", true},
		{"throughput x0.7", func(t *testing.T) string { return scaled(t, base, "deep-2rank", "useful_gpts_per_s", 0.7) },
			"deep-2rank useful_gpts_per_s", true},
		{"throughput x0.8 is inside the 0.25 bound", func(t *testing.T) string { return scaled(t, base, "deep-2rank", "useful_gpts_per_s", 0.8) },
			"", true},
		{"setup x1.3: lower is better", func(t *testing.T) string { return scaled(t, base, "construct-cold", "setup_s", 1.3) },
			"construct-cold setup_s", true},
		{"setup x0.5 is an improvement", func(t *testing.T) string { return scaled(t, base, "construct-cold", "setup_s", 0.5) },
			"", true},
		{"rss x1.11 is beyond the 0.10 bound", func(t *testing.T) string { return scaled(t, base, "stream-2048", "rss_mb", 1.11) },
			"stream-2048 rss_mb", true},
		{"another cpu_model has no baseline", func(*testing.T) string {
			return strings.ReplaceAll(base, "Intel(R) Xeon(R) Processor @ 2.10GHz", "Some Other CPU")
		}, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := ingest(t, dir, base); err != nil {
				t.Fatal(err)
			}
			stdout, err := ingest(t, dir, tc.second(t))
			if (err != nil) != (tc.regressed != "") {
				t.Fatalf("err = %v, want regression %q\n%s", err, tc.regressed, stdout)
			}
			if got := strings.Contains(stdout, "recording only"); got == tc.baselined {
				t.Errorf("baselined = %v, want %v:\n%s", !got, tc.baselined, stdout)
			}
			flagged := ""
			for _, line := range strings.Split(stdout, "\n") {
				if f := strings.Fields(line); strings.HasSuffix(line, "REGRESSED") {
					flagged += f[0] + " " + f[1]
				}
			}
			if flagged != tc.regressed {
				t.Errorf("REGRESSED lines = %q, want %q:\n%s", flagged, tc.regressed, stdout)
			}
			if h := readHistory(t, dir); len(h.Entries) != 2 {
				t.Errorf("history entries = %d, want 2 (a regressed run is still recorded)", len(h.Entries))
			}
		})
	}
}

// The same transcript twice: every end-to-end metric of every workload is
// baselined on the one earlier sample, at ratio 1.00.
func TestObservatorySameRunTwice(t *testing.T) {
	dir := t.TempDir()
	base := transcript(t, "run_all_trace0.txt")
	if _, err := ingest(t, dir, base); err != nil {
		t.Fatal(err)
	}
	stdout, err := ingest(t, dir, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout, "(x1.00, 1 samples)  ok\n"); got != 15 {
		t.Errorf("%d metrics baselined at ratio 1.00, want 5 workloads x 3:\n%s", got, stdout)
	}
}

func TestObservatoryBadInput(t *testing.T) {
	full := transcript(t, "run_all_trace0.txt")
	for _, tc := range []struct{ name, text, want string }{
		{"cut before the last result line", full[:strings.LastIndex(full, "\n{")+1], "workload construct-cold: no result JSON line"},
		{"cut inside a block", strings.Replace(full, `{"correct":true,"attempted":4,"failed":0,"metrics":{"rss_mb":{"value":16.67`, "x", 1),
			"workload strong-2rank: no result JSON line before the next block"},
		{"failed checks", strings.Replace(full, `{"correct":true,"attempted":2,"failed":0`, `{"correct":false,"attempted":2,"failed":1`, 1),
			"workload stream-2048: the benchmark reported correct=false (1 failed checks)"},
		{"no host line", strings.Replace(full, "\nhost {", "\nhst {", 1), "workload stream-2048: no host line"},
		{"not a transcript", "PASS\nok  \tdevigo\t0.1s\n", "no `== <workload>` block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := ingest(t, dir, tc.text)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to contain %q", err, tc.want)
			}
			if _, statErr := os.Stat(filepath.Join(dir, "BENCH_history.json")); statErr == nil {
				t.Error("a rejected transcript was recorded")
			}
		})
	}
}

func TestObservatoryDiff(t *testing.T) {
	dir := t.TempDir()
	base := transcript(t, "run_all_trace0.txt")
	slow := scaled(t, base, "stream-2048", "useful_gpts_per_s", 0.5)
	other := strings.ReplaceAll(base, `"nproc":2`, `"nproc":8`)
	for _, text := range []string{base, slow, other} {
		if _, err := ingest(t, dir, text); err != nil && text != slow {
			t.Fatal(err)
		}
	}
	hist := filepath.Join(dir, "BENCH_history.json")
	diff := func(spec string) (string, error) {
		var out bytes.Buffer
		err := runObservatoryDiff(&out, hist, spec)
		return out.String(), err
	}

	out, err := diff("0,1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("same-host diff warns:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || f[0] == "workload" || f[0] == "Observatory" {
			continue
		}
		want := "1.00x"
		if f[0] == "stream-2048" && f[1] == "useful_gpts_per_s" {
			want = "0.50x REGRESSED"
		}
		if got := strings.Join(f[4:], " "); got != want {
			t.Errorf("%s %s: %q, want %q", f[0], f[1], got, want)
		}
	}

	if out, err = diff("-2,-1"); err != nil || !strings.Contains(out, "WARNING: entries ran on different hosts") {
		t.Errorf("cross-host diff: err %v\n%s", err, out)
	}
	if _, err = diff("0,3"); err == nil || !strings.Contains(err.Error(), `history index "3" out of range (0..2)`) {
		t.Errorf("out-of-range index: err = %v", err)
	}
	if _, err = diff("-4,0"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range negative index: err = %v", err)
	}
	if _, err = diff("yesterday,0"); err == nil || !strings.Contains(err.Error(), "no such timestamp and not an index") {
		t.Errorf("unknown timestamp: err = %v", err)
	}
	if _, err = diff("0"); err == nil {
		t.Error("a one-sided -diff spec was accepted")
	}
}
