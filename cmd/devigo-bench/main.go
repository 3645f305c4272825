// devigo-bench renders the paper's modeled evaluation and sweeps the
// autotuner. It measures no throughput of its own: a timing is a per-layer
// metric of the repository benchmark (bench/, see bench/README.md), two
// commits are compared by alternating bench/run.sh pairs whose runs are
// listed in CHANGES.md, and a certification is a go test.
//
// The modeled tables — every strong-scaling table and figure (Tables
// III-XXXIV, Figures 8-11 and 13-20), the weak-scaling runtime figures
// (12, 21-24), the single-node roofline (Fig. 7) and the automated
// mode-selection ablation — execute nothing:
//
//	devigo-bench -exp strong -model acoustic -arch cpu -so 8     # Fig. 8a / Table IV
//	devigo-bench -exp strong -model tti -arch gpu -so 16         # Fig. 19d / Table XXX
//	devigo-bench -exp weak -so 8                                 # Fig. 12
//	devigo-bench -exp roofline                                   # Fig. 7
//	devigo-bench -exp selectmode                                 # mode-tuner ablation
//	devigo-bench -exp all                                        # all of the above
//
// -exp autotune is the one experiment that runs kernels: it exhaustively
// sweeps the tuner's candidate space (halo mode x worker count x tile
// size) per scenario, lets the "search" policy choose, and writes
// BENCH_autotune.json recording chosen-vs-exhaustive-best, a
// bit-exactness verdict across every configuration and the host it ran
// on. -check holds such a report against the tuner's gates (search never
// below the best, and within 15% of it) and exits non-zero on any
// violation:
//
//	devigo-bench -exp autotune -model acoustic -size 128 -nt 16 -out /tmp/bench
//	devigo-bench -check -dir /tmp/bench -only autotune-exact,autotune-timing
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"devigo/internal/obs"
	"devigo/internal/perfmodel"
	"devigo/internal/perfreport"
)

// experiments is the -exp vocabulary, printed by the flag's help and by
// run's unknown-experiment error.
const experiments = "strong|weak|roofline|selectmode|autotune|all"

func main() {
	exp := flag.String("exp", "strong", "experiment: "+experiments)
	model := flag.String("model", "acoustic", "kernel: acoustic|elastic|tti|viscoelastic|all")
	arch := flag.String("arch", "cpu", "platform: cpu|gpu|all")
	soFlag := flag.String("so", "8", "space orders, comma separated (4,8,12,16)")
	size := flag.Int("size", 256, "autotune: square grid extent per side")
	nt := flag.Int("nt", 30, "autotune: timesteps to measure")
	out := flag.String("out", ".", "autotune: directory BENCH_autotune.json is written to")
	check := flag.Bool("check", false, "validate BENCH_autotune.json in -dir instead of running an experiment")
	dir := flag.String("dir", ".", "check: directory holding BENCH_autotune.json")
	only := flag.String("only", "", "check: comma-separated gate groups (autotune,autotune-exact,autotune-timing)")
	flag.Parse()

	err := func() error {
		if *check {
			return runCheck(*dir, *only)
		}
		return run(*exp, *model, *arch, *soFlag, *size, *nt, *out)
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
func run(exp, model, arch, soFlag string, size, nt int, out string) error {
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
	case "autotune":
		return runAutotuneExp(models, sos, size, nt, out)
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
		return runSelectMode([]int{8})
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", exp, experiments)
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
		s, err := perfreport.WeakScalingReport(models, so, machines)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	return nil
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
