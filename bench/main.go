// Command bench is the repository's benchmark: five workloads, three
// end-to-end metrics and a per-layer budget measured from outside the
// library. See README.md in this directory.
//
//	bench/run.sh --workload stream-2048 --seed 1 --seconds 20 --trace 0
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload deep-2rank -trace 1   # per-layer run
//	go run ./bench -aa                              # A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"strings"

	"devigo/internal/core"
	"devigo/internal/propagators"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	quick    bool
	update   bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: source jitter, shot positions, construct order")
	fs.Float64Var(&o.seconds, "seconds", 20, "timed seconds per workload (same on every commit)")
	fs.IntVar(&o.trace, "trace", 0, "1 = per-layer run: probes, adjacent pairs, traced reps; writes -out")
	fs.BoolVar(&o.aa, "aa", false, "run every workload twice, interleaved, and compare against the bounds")
	fs.BoolVar(&o.quick, "quick", false, "toy sizes, one rep per phase (smoke test)")
	fs.BoolVar(&o.update, "update-golden", false, "regenerate bench/golden.json (run twice: the second run must report 0 changes)")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for traces and per-layer tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prepareHost(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var err error
	failed := false
	switch {
	case o.update:
		err = updateGolden(stdout)
	case o.aa:
		failed, err = runAA(o, stdout)
	default:
		failed, err = runWorkloads(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// prepareHost pins the process environment: no DEVIGO_* variable can
// reach the library, and at most two OS threads run Go code, so the
// benchmark's two busy goroutines fit nproc=2 without oversubscription.
func prepareHost() error {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "DEVIGO_") {
			os.Unsetenv(name)
		}
	}
	if goruntime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs (have %d): every workload keeps two goroutines busy, and wall-clock scaling on fewer cores is not a measurement", goruntime.NumCPU())
	}
	goruntime.GOMAXPROCS(2)
	return nil
}

// result is the driver-facing outcome of one workload run: the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload and returns its context.
func runOne(o options, name string, log io.Writer) (*runCtx, error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{
		workload: name, seed: o.seed, seconds: o.seconds, trace: o.trace != 0,
		sz: fullSizes, outDir: o.outDir, gold: gold, log: log,
		rng: rand.New(rand.NewSource(o.seed)),
		out: metrics{}, configs: map[string]core.EffectiveConfig{},
	}
	if o.quick {
		rc.sz = quickSizes
	}
	rc.jitter = [2]int{rc.rng.Intn(5) - 2, rc.rng.Intn(5) - 2}
	if rc.trace {
		rc.tr = newTracer()
		if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if err := w.run(rc); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if rc.trace {
			if err := rc.tr.write(rc.outDir, rc.stem()); err != nil {
				return nil, err
			}
		}
		return rc, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(names, ", "))
}

// report prints the run for people, then the one JSON line the driver
// reads: every end-to-end metric, or with tracing every per-layer one.
func (rc *runCtx) report(w io.Writer) result {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := result{
		Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed,
		Metrics: map[string]metricValue{},
	}
	fmt.Fprintf(w, "== %s  seed %d  jitter %v  %.0f s  trace %v\n", rc.workload, rc.seed, rc.jitter, rc.seconds, rc.trace)
	for _, d := range defs {
		v := rc.out[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-34s %16.6g MiB (VmHWM, not gated)\n", "peak_rss_mb", peakRSSMiB())
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d of %d checks)\n", "failed_frac", failedFrac(rc.failed, rc.attempted), rc.failed, rc.attempted)
	host, _ := json.Marshal(fingerprint())
	fmt.Fprintf(w, "host %s\n", host)
	keys := make([]string, 0, len(rc.configs))
	for k := range rc.configs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cfg, _ := json.Marshal(rc.configs[k])
		fmt.Fprintf(w, "config %s %s\n", k, cfg)
	}
	if rc.trace {
		for _, r := range rc.tr.table() {
			fmt.Fprintf(w, "span %-28s n=%-6d total %10.3f ms  self %10.3f ms\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res
}

func selected(name string) []string {
	if name != "all" {
		return []string{name}
	}
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func runWorkloads(o options, stdout io.Writer) (failed bool, err error) {
	for _, name := range selected(o.workload) {
		rc, err := runOne(o, name, stdout)
		if err != nil {
			return false, err
		}
		if res := rc.report(stdout); !res.Correct {
			failed = true
		}
	}
	return failed, nil
}

// runAA runs the selected workloads twice in one invocation, interleaved
// (A1 B1 ... A2 B2 ...) so both sets see the same slow drift of the
// host, and holds every end-to-end metric's relative difference against
// its own bound. Two runs of the same code must agree, or the bounds
// mean nothing.
func runAA(o options, stdout io.Writer) (failed bool, err error) {
	o.trace = 0
	names := selected(o.workload)
	sets := [2]map[string]metrics{{}, {}}
	for i := range sets {
		for _, name := range names {
			rc, err := runOne(o, name, stdout)
			if err != nil {
				return false, err
			}
			if res := rc.report(stdout); !res.Correct {
				failed = true
			}
			sets[i][name] = rc.out
		}
	}
	fmt.Fprintf(stdout, "\n%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := sets[0][name][d.Name], sets[1][name][d.Name]
			rel := math.Abs(b-a) / a
			verdict := ""
			if rel > d.Bound {
				verdict = "  EXCEEDS"
				failed = true
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", name, d.Name, a, b, rel*100, d.Bound*100, verdict)
		}
	}
	return failed, nil
}

// updateGolden regenerates golden.json at full and quick size for every
// jitter a seed can pick, and reports how many entries changed against
// the embedded copy. Determinism is shown by running it twice: the
// second run must report 0.
func updateGolden(stdout io.Writer) error {
	old, err := loadGolden()
	if err != nil {
		old = newGolden()
	}
	g := newGolden()
	for _, sz := range []sizes{quickSizes, fullSizes} {
		for _, j := range jitters() {
			rc := &runCtx{sz: sz, jitter: j, gold: g, log: io.Discard,
				rng: rand.New(rand.NewSource(1)), out: metrics{}, configs: map[string]core.EffectiveConfig{}}
			for _, spec := range []steppingSpec{streamSpec(rc), strongSpec(rc)} {
				cross := spec.main
				cross.n, cross.nt, cross.w = sz.crossN, sz.crossNT, 0
				for _, p := range []stepProblem{spec.main, spec.pair, cross} {
					p.workers = 1
					if _, ok := g.Stepping[stepKey(p)][jitterKey(j)]; ok {
						continue
					}
					r, err := runRep(p, nil, 0)
					if err != nil {
						return err
					}
					if g.Stepping[stepKey(p)] == nil {
						g.Stepping[stepKey(p)] = map[string]stepGold{}
					}
					g.Stepping[stepKey(p)][jitterKey(j)] = stepGoldOf(r)
					settle()
				}
			}
			cfg, sc := rc.surveyInputs(sz.surveyShots, sz.surveyNT)
			res, err := propagators.RunShots("acoustic", cfg, sc)
			if err != nil {
				return err
			}
			if g.Survey[rc.surveyKey()] == nil {
				g.Survey[rc.surveyKey()] = map[string]string{}
			}
			g.Survey[rc.surveyKey()][jitterKey(j)] = bits(res.GradNorm)
			fmt.Fprintf(stdout, "golden: n=%d jitter %s done\n", sz.streamN, jitterKey(j))
		}
		rc := &runCtx{workload: "construct-cold", sz: sz, gold: g, log: io.Discard,
			rng: rand.New(rand.NewSource(1)), out: metrics{}, configs: map[string]core.EffectiveConfig{}}
		round, err := rc.constructRound(rc.constructCases(), nil, 0, false)
		if err != nil {
			return err
		}
		for k, h := range round.hashes {
			g.Construct[k] = h
		}
	}
	fmt.Fprintf(stdout, "golden: %d entries differ from the previous bench/golden.json\n", g.diff(old))
	return g.save("bench/golden.json")
}
