// devigo-bench regenerates the paper's evaluation: every strong-scaling
// table and figure (Tables III-XXXIV, Figures 8-11 and 13-20), the weak
// scaling runtime figures (12, 21-24), the single-node roofline (Fig. 7)
// and the automated mode-selection ablation.
//
// Examples:
//
//	devigo-bench -exp strong -model acoustic -arch cpu -so 8     # Fig. 8a / Table IV
//	devigo-bench -exp strong -model tti -arch gpu -so 16         # Fig. 19d / Table XXX
//	devigo-bench -exp weak -so 8                                 # Fig. 12
//	devigo-bench -exp roofline                                   # Fig. 7
//	devigo-bench -exp selectmode                                 # mode-tuner ablation
//	devigo-bench -exp all                                        # everything
//
// In addition to the paper's modeled numbers, -exp exec measures the
// *real* executor on this machine, comparing the interpreter against the
// bytecode register VM per scenario, and writes machine-readable
// BENCH_<scenario>.json files (GPts/s, compute/halo split, engine) for
// tracking the performance trajectory across PRs:
//
//	devigo-bench -exp exec -model all -size 256 -nt 30 -out .
//
// -exp adjoint measures the checkpointed adjoint/gradient subsystem: it
// certifies the discrete dot-product identity <Fq,d> = <q,F'd> (exiting
// non-zero if the identity is violated), times a full gradient with both
// engines and writes BENCH_adjoint.json:
//
//	devigo-bench -exp adjoint -size 128 -nt 60 -ckpt 8 -out .
//
// -exp timetile evaluates communication-avoiding time tiling: on a
// 4-rank world it sweeps the halo-exchange interval k over {1,2,4,8} for
// the acoustic (single-cluster) and elastic (two-cluster) schedules,
// certifies every interval bit-exact against k=1 (exiting non-zero on
// divergence), records real per-step MPI message/byte counters alongside
// the modelled amortized figures, and reports what the autotune policies
// choose with the k-axis open — writing BENCH_timetile.json:
//
//	devigo-bench -exp timetile -size 48 -nt 64 -out .
//
// -exp autotune evaluates the autotuning subsystem: it exhaustively
// sweeps the tuner's candidate space (halo mode x worker count x tile
// size) per scenario, lets the "model" and "search" policies choose, and
// writes BENCH_autotune.json recording chosen-vs-exhaustive-best (CI
// gates the search policy within 15% of the best) plus a bit-exactness
// check across every configuration:
//
//	devigo-bench -exp autotune -model acoustic -size 128 -nt 16 -out .
//
// -exp transport benchmarks the delivery substrates against each other:
// the same 4-rank acoustic run over the in-process transport (goroutine
// ranks) and over loopback TCP (one OS process per rank, spawned via
// the launcher), certifying the norms bit-identical and writing
// BENCH_transport.json with both timings and traffic counters:
//
//	devigo-bench -exp transport -size 64 -nt 30 -out .
//
// -exp fwiservice benchmarks the shot-parallel FWI service: a cold
// sequential baseline (every shot compiles and autotunes its three
// operators privately) against the cached service at 1, 2 and 4 workers,
// certifying every stacked gradient bit-identical to the baseline and the
// compile count equal to the unique-schedule count, and writing
// BENCH_fwiservice.json (shots/sec, amortized speedup, cache hit rates):
//
//	devigo-bench -exp fwiservice -size 36 -nt 8 -shots 8 -out .
//
// -exp hybrid certifies the persistent MPI+X worker runtime: raw pool
// dispatches and the full engine path are measured for steady-state heap
// allocations (the dispatch protocol must allocate exactly zero), a worker
// scaling sweep over all three engines records throughput plus bit-exactness
// against the 1-worker baseline, the joint autotuner reports the team
// size it picks with the workers axis open, and a 4-rank full-overlap
// time-tiled run snapshots the pool's sync/idle/steal counters — writing
// BENCH_hybrid.json:
//
//	devigo-bench -exp hybrid -size 96 -nt 24 -out .
//
// -exp observatory runs the continuous perf observatory: a compact
// measured sweep (scenario x ranks x halo mode x exchange interval),
// appended to a stored run history with regression detection against the
// median of recent same-host runs, plus a static HTML report (roofline
// scatter, measured-vs-model communication, autotuner regret):
//
//	devigo-bench -exp observatory -out . -history BENCH_history.json
//
// With -diff, the observatory compares two stored history entries
// instead of sweeping: each side names an entry by its timestamp or by
// integer index (negative counts from the newest), and the per-run
// throughput delta table is printed:
//
//	devigo-bench -exp observatory -history BENCH_history.json -diff -2,-1
//
// -check validates previously-emitted BENCH_*.json files against the
// repository's perf/correctness gates (the CI gates, in Go instead of
// jq) and exits non-zero on any violation:
//
//	devigo-bench -check -dir /tmp/bench -only exec,adjoint
//
// Every experiment reports failures through the process exit status so CI
// gates can consume the tool directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"devigo/internal/halo"
	"devigo/internal/obs"
	"devigo/internal/perfmodel"
	"devigo/internal/perfreport"
)

func main() {
	exp := flag.String("exp", "strong", "experiment: strong|weak|roofline|selectmode|exec|adjoint|autotune|timetile|transport|fwiservice|hybrid|observatory|all")
	model := flag.String("model", "acoustic", "kernel: acoustic|elastic|tti|viscoelastic|all")
	arch := flag.String("arch", "cpu", "platform: cpu|gpu|all")
	soFlag := flag.String("so", "8", "space orders, comma separated (4,8,12,16)")
	size := flag.Int("size", 256, "exec/adjoint: square grid extent per side")
	nt := flag.Int("nt", 30, "exec/adjoint: timesteps to measure")
	ckpt := flag.Int("ckpt", 0, "adjoint: checkpoint interval (0 = sqrt(nt))")
	shots := flag.Int("shots", 8, "fwiservice: number of shots in the survey")
	out := flag.String("out", ".", "exec/adjoint/observatory: directory for BENCH_*.json")
	check := flag.Bool("check", false, "validate BENCH_*.json gates in -dir instead of running an experiment")
	dir := flag.String("dir", ".", "check: directory holding the BENCH_*.json files")
	only := flag.String("only", "", "check: comma-separated gate groups (exec,adjoint,autotune,autotune-exact,autotune-timing,timetile,transport,fwiservice,fwiservice-timing,hybrid,hybrid-timing)")
	history := flag.String("history", "", "observatory: run-history JSON path (default <out>/BENCH_history.json)")
	regressWarn := flag.Bool("regress-warn", false, "observatory: report regressions as warnings instead of failing")
	diff := flag.String("diff", "", "observatory: compare two history entries (\"a,b\": timestamps or indices, negative from newest) instead of sweeping")
	flag.Parse()

	err := func() error {
		if *check {
			models := []string{*model}
			if *model == "all" {
				models = []string{"acoustic", "elastic", "tti", "viscoelastic"}
			}
			return runCheck(*dir, *only, models)
		}
		return run(*exp, *model, *arch, *soFlag, *size, *nt, *ckpt, *shots, *out, *history, *diff, *regressWarn)
	}()
	if ferr := obs.FlushEnv(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "devigo-bench:", err)
		os.Exit(1)
	}
}

// run dispatches one experiment; any failure propagates to a non-zero
// exit so CI jobs consuming the tool can actually fail.
func run(exp, model, arch, soFlag string, size, nt, ckpt, shots int, out, history, diff string, regressWarn bool) error {
	sos, err := parseSOs(soFlag)
	if err != nil {
		return err
	}
	models := []string{model}
	if model == "all" {
		models = []string{"acoustic", "elastic", "tti", "viscoelastic"}
	}
	var machines []perfmodel.Machine
	switch arch {
	case "cpu":
		machines = []perfmodel.Machine{perfmodel.Archer2Node()}
	case "gpu":
		machines = []perfmodel.Machine{perfmodel.TursaA100()}
	case "all":
		machines = []perfmodel.Machine{perfmodel.Archer2Node(), perfmodel.TursaA100()}
	default:
		return fmt.Errorf("unknown arch %q", arch)
	}

	switch exp {
	case "strong":
		return runStrong(models, sos, machines)
	case "weak":
		return runWeak(models, sos, machines)
	case "roofline":
		return runRoofline(sos)
	case "selectmode":
		return runSelectMode(sos)
	case "exec":
		return runExec(models, sos, size, nt, out)
	case "adjoint":
		return runAdjoint(size, nt, ckpt, out)
	case "autotune":
		return runAutotuneExp(models, sos, size, nt, out)
	case "timetile":
		return runTimetile(models, sos, size, nt, out)
	case "hybrid":
		return runHybrid(size, nt, out)
	case "observatory":
		if diff != "" {
			return runObservatoryDiff(out, history, diff)
		}
		return runObservatory(out, history, regressWarn)
	case "transport":
		return runTransport(size, nt, out)
	case "fwiservice":
		return runFWIService(size, nt, shots, out)
	case "transport-worker":
		// Internal: one TCP rank process of -exp transport, spawned by
		// the launcher with the rendezvous environment set.
		return runTransportWorker(size, nt)
	case "all":
		all := []string{"acoustic", "elastic", "tti", "viscoelastic"}
		both := []perfmodel.Machine{perfmodel.Archer2Node(), perfmodel.TursaA100()}
		if err := runRoofline([]int{8}); err != nil {
			return err
		}
		if err := runStrong(all, sos, both); err != nil {
			return err
		}
		if err := runWeak(all, sos, both); err != nil {
			return err
		}
		if err := runSelectMode([]int{8}); err != nil {
			return err
		}
		return runObservatory(out, history, regressWarn)
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func runStrong(models []string, sos []int, machines []perfmodel.Machine) error {
	for _, m := range machines {
		for _, model := range models {
			for _, so := range sos {
				tbl, err := perfreport.StrongScaling(model, so, m)
				if err != nil {
					return err
				}
				fmt.Println(tbl.Format())
			}
		}
	}
	return nil
}

func runWeak(models []string, sos []int, machines []perfmodel.Machine) error {
	for _, so := range sos {
		fmt.Printf("MPI-X weak scaling runtime (seconds), so-%02d (paper Fig. 12/21-24)\n", so)
		fmt.Printf("%-18s", "series/nodes")
		for _, n := range perfreport.PaperNodeCounts {
			fmt.Printf("%8d", n)
		}
		fmt.Println()
		for _, m := range machines {
			modes := []halo.Mode{halo.ModeBasic, halo.ModeFull, halo.ModeDiagonal}
			if m.GPUOnlyBasic {
				modes = modes[:1]
			}
			for _, model := range models {
				for _, mode := range modes {
					pts, err := perfreport.WeakScaling(model, so, m, mode)
					if err != nil {
						return err
					}
					label := fmt.Sprintf("%s-%s", shortName(model), mode)
					if m.GPUOnlyBasic {
						label += "[GPU]"
					}
					fmt.Printf("%-18s", label)
					for _, p := range pts {
						fmt.Printf("%8.2f", p.Runtime)
					}
					fmt.Println()
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func shortName(model string) string {
	switch model {
	case "acoustic":
		return "Ac"
	case "elastic":
		return "El"
	case "tti":
		return "TTI"
	case "viscoelastic":
		return "VEl"
	}
	return model
}

func runRoofline(sos []int) error {
	for _, so := range sos {
		s, err := perfreport.RooflineReport(so)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	return nil
}

func runSelectMode(sos []int) error {
	for _, so := range sos {
		s, err := perfreport.ModeSelectionReport(so)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	return nil
}

func parseSOs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad space order %q", part)
		}
		if v%2 != 0 || v < 2 || v > 16 {
			return nil, fmt.Errorf("space order %d unsupported", v)
		}
		out = append(out, v)
	}
	return out, nil
}
