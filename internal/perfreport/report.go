package perfreport

import (
	"fmt"
	"strings"

	"devigo/internal/halo"
	"devigo/internal/perfmodel"
)

// PaperNodeCounts is the node/device axis of every scaling figure.
var PaperNodeCounts = []int{1, 2, 4, 8, 16, 32, 64, 128}

// PaperSpaceOrders is the SDO sweep of the appendix tables.
var PaperSpaceOrders = []int{4, 8, 12, 16}

// CPUShape returns the paper's CPU problem size for a model (Section IV-C).
func CPUShape(model string) []int {
	if model == "viscoelastic" {
		return []int{768, 768, 768}
	}
	return []int{1024, 1024, 1024}
}

// GPUShape returns the paper's GPU problem size for a model.
func GPUShape(model string) []int {
	switch model {
	case "acoustic":
		return []int{1158, 1158, 1158}
	case "elastic":
		return []int{832, 832, 832}
	case "tti":
		return []int{896, 896, 896}
	case "viscoelastic":
		return []int{704, 704, 704}
	}
	return []int{1024, 1024, 1024}
}

// ScalingTable is one regenerated paper table: throughput per mode per
// node count, plus the best-mode efficiency annotations of the figures.
type ScalingTable struct {
	Model string
	SO    int
	Arch  string
	Nodes []int
	// Rows maps mode name -> GPts/s per node count.
	Rows map[string][]float64
	// ModeOrder preserves the paper's row order.
	ModeOrder []string
	// EffPct is the best-mode strong-scaling efficiency (percent) per
	// node count — the figures' ideal-percentage annotations.
	EffPct []float64
}

// StrongScaling regenerates one strong-scaling table (paper Tables
// III-XXXIV; Figures 8-11, 13-20).
func StrongScaling(model string, so int, machine perfmodel.Machine) (*ScalingTable, error) {
	kc, err := Characterize(model, so)
	if err != nil {
		return nil, err
	}
	shape := CPUShape(model)
	arch := "cpu"
	modes := []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull}
	if machine.GPUOnlyBasic {
		shape = GPUShape(model)
		arch = "gpu"
		modes = modes[:1]
	}
	tbl := &ScalingTable{Model: model, SO: so, Arch: arch, Nodes: PaperNodeCounts,
		Rows: map[string][]float64{}}
	for _, m := range modes {
		tbl.ModeOrder = append(tbl.ModeOrder, m.String())
	}
	best := make([]float64, len(PaperNodeCounts))
	for _, mode := range modes {
		row := make([]float64, len(PaperNodeCounts))
		for i, n := range PaperNodeCounts {
			s := perfmodel.Scenario{Kernel: kc, Machine: machine, Shape: shape, Nodes: n, Mode: mode}
			tput, err := s.ThroughputGPts()
			if err != nil {
				return nil, err
			}
			row[i] = tput
			if tput > best[i] {
				best[i] = tput
			}
		}
		tbl.Rows[mode.String()] = row
	}
	tbl.EffPct = make([]float64, len(PaperNodeCounts))
	for i, n := range PaperNodeCounts {
		tbl.EffPct[i] = 100 * best[i] / (best[0] * float64(n))
	}
	return tbl, nil
}

// WeakPoint is one series point of the weak-scaling figure.
type WeakPoint struct {
	Nodes   int
	Runtime float64 // seconds for the paper's timestep counts
}

// WeakScaling regenerates one series of paper Figures 12/21-24: constant
// 256^3 per rank (CPU) or per device (GPU), doubling one dimension per
// doubling of resources, runtime for the model's paper timestep count.
func WeakScaling(model string, so int, machine perfmodel.Machine, mode halo.Mode) ([]WeakPoint, error) {
	kc, err := Characterize(model, so)
	if err != nil {
		return nil, err
	}
	steps := paperTimesteps(model)
	var out []WeakPoint
	for _, n := range PaperNodeCounts {
		// Paper Section IV-E: constant 256^3 per CPU node / GPU device,
		// cyclically doubling one dimension per doubling of resources
		// (512x256x256 on 2 nodes ... 2048x1024x1024 on 128).
		shape := []int{256, 256, 256}
		g := n
		d := 0
		for g > 1 {
			shape[d] *= 2
			g /= 2
			d = (d + 1) % 3
		}
		s := perfmodel.Scenario{Kernel: kc, Machine: machine, Shape: shape, Nodes: n, Mode: mode}
		st, err := s.StepTime()
		if err != nil {
			return nil, err
		}
		out = append(out, WeakPoint{Nodes: n, Runtime: st * float64(steps)})
	}
	return out, nil
}

// WeakScalingReport renders one space order's weak-scaling figure: a
// runtime series per model and mode on every machine (basic only on a
// GPU machine, Table I).
func WeakScalingReport(models []string, so int, machines []perfmodel.Machine) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "MPI-X weak scaling runtime (seconds), so-%02d (paper Fig. 12/21-24)\n", so)
	fmt.Fprintf(&b, "%-18s", "series/nodes")
	for _, n := range PaperNodeCounts {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for _, m := range machines {
		modes := []halo.Mode{halo.ModeBasic, halo.ModeFull, halo.ModeDiagonal}
		if m.GPUOnlyBasic {
			modes = modes[:1]
		}
		for _, model := range models {
			for _, mode := range modes {
				pts, err := WeakScaling(model, so, m, mode)
				if err != nil {
					return "", err
				}
				label := fmt.Sprintf("%s-%s", shortName(model), mode)
				if m.GPUOnlyBasic {
					label += "[GPU]"
				}
				fmt.Fprintf(&b, "%-18s", label)
				for _, p := range pts {
					fmt.Fprintf(&b, "%8.2f", p.Runtime)
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String(), nil
}

// shortName is a model's series prefix in the weak-scaling figure.
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

// paperTimesteps returns the step counts of the paper's 512 ms runs
// (Section IV-C).
func paperTimesteps(model string) int {
	switch model {
	case "elastic":
		return 363
	case "viscoelastic":
		return 251
	default:
		return 290
	}
}

// Format renders the table in the paper's appendix style.
func (t *ScalingTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s so-%02d [%s] kernel throughput (GPts/s)\n", t.Model, t.SO, t.Arch)
	fmt.Fprintf(&b, "%-6s", "")
	for _, n := range t.Nodes {
		fmt.Fprintf(&b, "%9d", n)
	}
	b.WriteString("\n")
	for _, mode := range t.ModeOrder {
		fmt.Fprintf(&b, "%-6s", mode)
		for _, v := range t.Rows[mode] {
			fmt.Fprintf(&b, "%9.1f", v)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-6s", "eff%")
	for _, e := range t.EffPct {
		fmt.Fprintf(&b, "%8.0f%%", e)
	}
	b.WriteString("\n")
	return b.String()
}

// RooflineReport regenerates paper Fig. 7: every kernel on the integrated
// CPU/GPU roofline.
func RooflineReport(so int) (string, error) {
	var b strings.Builder
	b.WriteString("Integrated CPU/GPU roofline (paper Fig. 7)\n")
	fmt.Fprintf(&b, "%-14s %-16s %10s %12s %8s\n", "kernel", "machine", "AI(F/B)", "GFlop/s", "bound")
	for _, machine := range []perfmodel.Machine{perfmodel.Archer2Node(), perfmodel.TursaA100()} {
		for _, model := range []string{"acoustic", "tti", "elastic", "viscoelastic"} {
			kc, err := Characterize(model, so)
			if err != nil {
				return "", err
			}
			p := perfmodel.Roofline(kc, machine)
			fmt.Fprintf(&b, "%-14s %-16s %10.2f %12.1f %8s\n", model, machine.Name, p.AI, p.GFlops, p.Bound)
		}
	}
	return b.String(), nil
}

// ModeSelectionReport runs the automated mode selector (the paper's
// future-work tuner) over the full CPU sweep.
func ModeSelectionReport(so int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Automated MPI-mode selection, CPU, so-%02d\n", so)
	fmt.Fprintf(&b, "%-14s", "model/nodes")
	for _, n := range PaperNodeCounts {
		fmt.Fprintf(&b, "%7d", n)
	}
	b.WriteString("\n")
	for _, model := range []string{"acoustic", "elastic", "tti", "viscoelastic"} {
		kc, err := Characterize(model, so)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-14s", model)
		for _, n := range PaperNodeCounts {
			s := perfmodel.Scenario{Kernel: kc, Machine: perfmodel.Archer2Node(), Shape: CPUShape(model), Nodes: n}
			mode, _, err := perfmodel.SelectMode(s)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%7s", mode)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}
