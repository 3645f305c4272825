package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ObsRun is one workload block of a bench/run.sh transcript: every metric
// on its final JSON line (the end-to-end three, or with --trace 1 the
// per-layer set).
type ObsRun struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
}

// ObsBaseline is one end-to-end metric of one workload held against the
// stored same-host history.
type ObsBaseline struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	// Baseline is the median of the last (up to) baselineWindow same-host
	// history entries, Samples how many fed it, Ratio Value/Baseline (0
	// without a baseline).
	Baseline float64 `json:"baseline,omitempty"`
	Samples  int     `json:"samples"`
	Ratio    float64 `json:"ratio,omitempty"`
	// Regressed marks a value worse than the baseline by more than the
	// metric's BENCHMARK.json bound, in its `better` direction.
	Regressed bool `json:"regressed"`
}

// ObservatoryReport is the BENCH_observatory.json schema.
type ObservatoryReport struct {
	GeneratedAt string `json:"generated_at"`
	// Host is the benchmark's own `host` line.
	Host        map[string]any `json:"host"`
	Runs        []ObsRun       `json:"runs"`
	Baselines   []ObsBaseline  `json:"baselines"`
	Regressions int            `json:"regressions"`
	// HistoryEntries is the history length after appending this run.
	HistoryEntries int `json:"history_entries"`
}

// HistoryEntry is one stored benchmark run: a timestamp, the host line and
// every metric per workload.
type HistoryEntry struct {
	Time      string                        `json:"time"`
	Host      map[string]any                `json:"host"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// History is the BENCH_history.json schema — the observatory's stored run
// record, bounded to historyCap entries.
type History struct {
	Entries []HistoryEntry `json:"entries"`
}

const (
	// baselineWindow is how many recent same-host entries feed the median.
	baselineWindow = 5
	// historyCap bounds the stored history.
	historyCap = 100
)

// hostKey is what history entries are matched on: the host line minus the
// commit, so a run only ever gates against runs of the same machine, core
// count and toolchain, whichever commit they measured.
func hostKey(host map[string]any) string {
	h := make(map[string]any, len(host))
	for k, v := range host {
		if k != "commit" {
			h[k] = v
		}
	}
	key, _ := json.Marshal(h) // map keys marshal sorted
	return string(key)
}

// endToEndMetric is one `end_to_end` row of BENCHMARK.json.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worse reports whether v is worse than base by more than the metric's
// bound — the benchmark's own definition of a regression.
func (m endToEndMetric) worse(v, base float64) bool {
	if m.Better == "lower" {
		return v > base*(1+m.Bound)
	}
	return v < base*(1-m.Bound)
}

// loadEndToEnd reads the end-to-end metric definitions from the
// BENCHMARK.json of the enclosing checkout (the nearest one at or above
// the working directory).
func loadEndToEnd() ([]endToEndMetric, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var b struct {
				EndToEnd []endToEndMetric `json:"end_to_end"`
			}
			if err := json.Unmarshal(data, &b); err != nil {
				return nil, fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return b.EndToEnd, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// parseTranscript reads the text bench/run.sh prints: per workload a
// `== <workload> ...` header, a `host {...}` line and a final JSON result
// line. Everything else (progress lines, the human-readable table, config
// and span lines) is skipped. A block that is cut short, reports failed
// checks or ran on a different host than the others is an error.
func parseTranscript(in io.Reader) (host map[string]any, runs []ObsRun, err error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	open := ""                   // workload of the block being read
	var blockHost map[string]any // its host line
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			if open != "" {
				return nil, nil, fmt.Errorf("workload %s: no result JSON line before the next block (truncated input?)", open)
			}
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, nil, fmt.Errorf("malformed block header %q", line)
			}
			open, blockHost = f[1], nil
		case open != "" && strings.HasPrefix(line, "host "):
			if err := json.Unmarshal([]byte(line[len("host "):]), &blockHost); err != nil {
				return nil, nil, fmt.Errorf("workload %s: host line: %w", open, err)
			}
		case open != "" && strings.HasPrefix(line, "{"):
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, nil, fmt.Errorf("workload %s: result line: %w", open, err)
			}
			if !res.Correct {
				return nil, nil, fmt.Errorf("workload %s: the benchmark reported correct=false (%d failed checks); its timings are not recorded", open, res.Failed)
			}
			if blockHost == nil {
				return nil, nil, fmt.Errorf("workload %s: no host line", open)
			}
			if host == nil {
				host = blockHost
			} else if hostKey(host) != hostKey(blockHost) {
				return nil, nil, fmt.Errorf("workload %s: ran on %s, earlier blocks on %s", open, hostKey(blockHost), hostKey(host))
			}
			run := ObsRun{Workload: open, Metrics: map[string]float64{}}
			for name, m := range res.Metrics {
				run.Metrics[name] = m.Value
			}
			runs = append(runs, run)
			open = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if open != "" {
		return nil, nil, fmt.Errorf("workload %s: no result JSON line (truncated input?)", open)
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("no `== <workload>` block on standard input: pipe the output of bench/run.sh in")
	}
	return host, runs, nil
}

// runObservatory ingests one benchmark transcript: compare every
// end-to-end metric against the same-host history, persist history +
// report + HTML, and fail on regression (the first run on a host has no
// baseline and only records).
func runObservatory(in io.Reader, w io.Writer, outDir, historyPath string) error {
	defs, err := loadEndToEnd()
	if err != nil {
		return err
	}
	host, runs, err := parseTranscript(in)
	if err != nil {
		return err
	}
	hist, err := loadHistory(historyPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	key := hostKey(host)
	fmt.Fprintf(w, "Perf observatory: %d workload(s) on %s\n", len(runs), key)

	report := ObservatoryReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        host,
		Runs:        runs,
	}
	entry := HistoryEntry{Time: report.GeneratedAt, Host: host, Workloads: map[string]map[string]float64{}}
	for _, r := range runs {
		entry.Workloads[r.Workload] = r.Metrics
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			b := baselineOf(hist, key, r.Workload, d, v)
			report.Baselines = append(report.Baselines, b)
			if b.Regressed {
				report.Regressions++
			}
		}
	}
	hist.Entries = append(hist.Entries, entry)
	if len(hist.Entries) > historyCap {
		hist.Entries = hist.Entries[len(hist.Entries)-historyCap:]
	}
	report.HistoryEntries = len(hist.Entries)

	reportPath := filepath.Join(outDir, "BENCH_observatory.json")
	htmlPath := filepath.Join(outDir, "observatory.html")
	if err := writeJSON(historyPath, &hist); err != nil {
		return err
	}
	if err := writeJSON(reportPath, &report); err != nil {
		return err
	}
	if err := os.WriteFile(htmlPath, []byte(observatoryHTML(&report)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s, %s, %s\n", reportPath, historyPath, htmlPath)

	baselined := 0
	for _, b := range report.Baselines {
		if b.Samples == 0 {
			continue
		}
		baselined++
		state := "ok"
		if b.Regressed {
			state = "REGRESSED"
		}
		fmt.Fprintf(w, "  %-16s %-18s %12.6g  baseline %12.6g (x%.2f, %d samples)  %s\n",
			b.Workload, b.Metric, b.Value, b.Baseline, b.Ratio, b.Samples, state)
	}
	switch {
	case len(report.Baselines) == 0:
		fmt.Fprintln(w, "  no end-to-end metric on the result lines (a --trace 1 run): recording only")
	case baselined == 0:
		fmt.Fprintln(w, "  no same-host baseline yet (first run on this host): recording only")
	}
	if report.Regressions > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse than the same-host baseline median by more than their BENCHMARK.json bound", report.Regressions)
	}
	return nil
}

// baselineOf holds one metric value against the median of its last
// baselineWindow history entries from the host with the given key.
func baselineOf(hist History, key, workload string, d endToEndMetric, v float64) ObsBaseline {
	b := ObsBaseline{Workload: workload, Metric: d.Name, Value: v}
	var vals []float64
	for i := len(hist.Entries) - 1; i >= 0 && len(vals) < baselineWindow; i-- {
		e := hist.Entries[i]
		if hostKey(e.Host) != key {
			continue
		}
		if old, ok := e.Workloads[workload][d.Name]; ok && old > 0 {
			vals = append(vals, old)
		}
	}
	b.Samples = len(vals)
	if len(vals) == 0 {
		return b
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	b.Baseline = vals[mid]
	if len(vals)%2 == 0 {
		b.Baseline = (vals[mid-1] + vals[mid]) / 2
	}
	b.Ratio = v / b.Baseline
	b.Regressed = d.worse(v, b.Baseline)
	return b
}

// runObservatoryDiff is the observatory's -diff mode: it loads the stored
// history and prints the per-metric delta between two entries. spec is
// "a,b" where each side resolves an entry by exact timestamp or by integer
// index (0 = oldest; negative counts back from the newest, so "-2,-1"
// compares the last two runs). Cross-host comparisons are allowed but
// flagged, since absolute figures only mean something on one host.
func runObservatoryDiff(w io.Writer, historyPath, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-diff wants two comma-separated entries, got %q", spec)
	}
	defs, err := loadEndToEnd()
	if err != nil {
		return err
	}
	hist, err := loadHistory(historyPath)
	if err != nil {
		return err
	}
	if len(hist.Entries) == 0 {
		return fmt.Errorf("%s holds no history entries", historyPath)
	}
	a, err := resolveHistoryEntry(hist, strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	b, err := resolveHistoryEntry(hist, strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Observatory diff: %s -> %s\n", a.Time, b.Time)
	if hostKey(a.Host) != hostKey(b.Host) {
		fmt.Fprintf(w, "  WARNING: entries ran on different hosts (%s vs %s); ratios are not comparable\n",
			hostKey(a.Host), hostKey(b.Host))
	}
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %s\n", "workload", "metric", "a", "b", "b/a")
	for _, wl := range unionKeys(a.Workloads, b.Workloads) {
		for _, name := range unionKeys(a.Workloads[wl], b.Workloads[wl]) {
			va, oka := a.Workloads[wl][name]
			vb, okb := b.Workloads[wl][name]
			switch {
			case !oka:
				fmt.Fprintf(w, "%-16s %-34s %14s %14.6g new\n", wl, name, "-", vb)
			case !okb:
				fmt.Fprintf(w, "%-16s %-34s %14.6g %14s gone\n", wl, name, va, "-")
			default:
				tag := ""
				if va > 0 {
					tag = fmt.Sprintf("%.2fx", vb/va)
				}
				for _, d := range defs {
					if d.Name == name && d.worse(vb, va) {
						tag += " REGRESSED"
					}
				}
				fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g %s\n", wl, name, va, vb, tag)
			}
		}
	}
	return nil
}

// unionKeys is the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// resolveHistoryEntry finds one history entry by exact timestamp match,
// falling back to an integer index (negative from the newest entry).
func resolveHistoryEntry(hist History, key string) (HistoryEntry, error) {
	for _, e := range hist.Entries {
		if e.Time == key {
			return e, nil
		}
	}
	idx, err := strconv.Atoi(key)
	if err != nil {
		return HistoryEntry{}, fmt.Errorf("history entry %q: no such timestamp and not an index", key)
	}
	if idx < 0 {
		idx += len(hist.Entries)
	}
	if idx < 0 || idx >= len(hist.Entries) {
		return HistoryEntry{}, fmt.Errorf("history index %q out of range (0..%d)", key, len(hist.Entries)-1)
	}
	return hist.Entries[idx], nil
}

func loadHistory(path string) (History, error) {
	var h History
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return h, nil
	}
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return h, fmt.Errorf("%s: %w (delete it to start a fresh history)", path, err)
	}
	return h, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
