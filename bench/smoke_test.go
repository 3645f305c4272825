package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
)

// runQuick runs the benchmark at toy size and returns the JSON result
// line of every workload.
func runQuick(t *testing.T, trace string) map[string]result {
	t.Helper()
	if goruntime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on fewer than 2 CPUs")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", "all", "-seed", "7", "-trace", trace, "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	out := map[string]result{}
	name := ""
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.Fields(rest)[0]
		}
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			out[name] = r
		}
	}
	return out
}

// The smoke tests call every library API the benchmark uses, at toy
// size and golden-checked, so a change that breaks one fails here
// before it reaches the pipeline.
func TestQuickEndToEnd(t *testing.T) {
	results := runQuick(t, "0")
	for _, w := range workloads {
		r, ok := results[w.name]
		if !ok {
			t.Errorf("%s: no result line", w.name)
			continue
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.Name, v, d.Unit)
			}
		}
	}
}

func TestQuickPerLayer(t *testing.T) {
	results := runQuick(t, "1")
	for _, w := range workloads {
		r, ok := results[w.name]
		if !ok {
			t.Errorf("%s: no result line", w.name)
			continue
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, r.Correct, r.Failed)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(r.Metrics), len(perLayer))
		}
	}
	// The interactions the benchmark states in advance, as far as counts
	// can show them at toy size.
	strong, deep := results["strong-2rank"].Metrics, results["deep-2rank"].Metrics
	if strong["halo.shell_overhead_frac"].Value != 0 {
		t.Errorf("strong-2rank recomputes no shell, got %v", strong["halo.shell_overhead_frac"].Value)
	}
	if !(deep["halo.shell_overhead_frac"].Value > 0) {
		t.Errorf("deep-2rank must recompute shell points")
	}
	if !(deep["halo.msgs_per_step"].Value < strong["halo.msgs_per_step"].Value) {
		t.Errorf("deep exchanges must send fewer messages per step: %v vs %v",
			deep["halo.msgs_per_step"].Value, strong["halo.msgs_per_step"].Value)
	}
	if results["stream-2048"].Metrics["halo.msgs_per_step"].Value != 0 {
		t.Errorf("the serial workload sends no messages")
	}
	survey := results["survey-8shot"].Metrics
	if survey["opcache.misses"].Value != 3 {
		t.Errorf("a survey compiles three schedules, got %v", survey["opcache.misses"].Value)
	}
}

func TestPerturbedGoldenFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	rc := &runCtx{sz: quickSizes, jitter: [2]int{1, -1}}
	p := streamSpec(rc).main
	r, err := runRep(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := g.checkStep(p, r); msg != "" {
		t.Fatalf("unperturbed golden must match: %s", msg)
	}
	e := g.Stepping[stepKey(p)][jitterKey(p.jitter)]
	e.Norm = bits(r.norm * (1 + 1e-15))
	g.Stepping[stepKey(p)][jitterKey(p.jitter)] = e
	if g.checkStep(p, r) == "" {
		t.Errorf("a one-ulp change of the golden norm must fail the check")
	}
}

// BENCHMARK.json is the driver's copy of the catalogue; keep them equal
// and inside the driver's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q does not match the catalogue", i, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %q breaks the driver's limits", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("end_to_end %q breaks the driver's limits", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("setup_s (s, lower) is mandatory")
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q breaks the driver's limits", m.Name)
		}
		seen[m.Name] = true
	}
	if len(doc.PerLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("file breaks the driver's size limits")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || strings.Join(doc.Command, " ") != "bash bench/run.sh" {
		t.Errorf("paths %v / command %v", doc.Paths, doc.Command)
	}
}
