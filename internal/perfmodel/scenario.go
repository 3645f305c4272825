package perfmodel

import (
	"fmt"

	"devigo/internal/grid"
	"devigo/internal/halo"
)

// Scenario is one point of a scaling experiment: a kernel on a machine at
// a node count with a communication mode.
type Scenario struct {
	Kernel  KernelChar
	Machine Machine
	// Shape is the global grid (paper problem sizes, e.g. 1024^3).
	Shape []int
	// Nodes is the CPU node count, or for GPUs the *device* count.
	Nodes int
	// Mode is the communication pattern.
	Mode halo.Mode
	// Topology optionally overrides the rank grid (the paper's manual
	// full-mode tuning); nil uses DimsCreate.
	Topology []int
}

// Ranks returns the MPI rank count of the scenario. For the GPU machine
// Nodes counts devices, each hosting one rank.
func (s *Scenario) Ranks() int {
	if s.Machine.GPUOnlyBasic {
		return s.Nodes
	}
	return s.Nodes * s.Machine.RanksPerNode
}

// localShape returns the slowest rank's chunk (ceil division).
func (s *Scenario) localShape() ([]int, error) {
	ranks := s.Ranks()
	topo := s.Topology
	if topo == nil {
		topo = grid.DimsCreate(ranks, len(s.Shape))
	}
	prod := 1
	for _, t := range topo {
		prod *= t
	}
	if prod != ranks {
		return nil, fmt.Errorf("perfmodel: topology %v does not tile %d ranks", topo, ranks)
	}
	out := make([]int, len(s.Shape))
	for d := range s.Shape {
		out[d] = (s.Shape[d] + topo[d] - 1) / topo[d]
		if out[d] < 1 {
			return nil, fmt.Errorf("perfmodel: %d ranks over-decompose dim %d", ranks, d)
		}
	}
	return out, nil
}

func prod(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// StepTime returns the modelled seconds per timestep on the slowest rank:
// Host.Predict with the machine's parameter set at the scenario's node
// count, on the slowest rank's chunk.
func (s *Scenario) StepTime() (float64, error) {
	local, err := s.localShape()
	if err != nil {
		return 0, err
	}
	if s.Machine.GPUOnlyBasic && s.Mode != halo.ModeBasic && s.Ranks() > 1 {
		return 0, fmt.Errorf("perfmodel: %s supports only the basic pattern (Table I)", s.Machine.Name)
	}
	p := OpProfile{
		LocalShape:     local,
		InstrsPerPoint: 1, // the machine prices a point update as one instruction
		HaloStreams:    s.Kernel.HaloStreams,
		HaloWidth:      s.Kernel.HaloWidth,
		Ranks:          s.Ranks(),
		Mode:           s.Mode,
	}
	return s.Machine.Host(s.Kernel, s.Nodes).Predict(p, ExecConfig{Mode: s.Mode}), nil
}

// ThroughputGPts returns the modelled global throughput in GPts/s.
func (s *Scenario) ThroughputGPts() (float64, error) {
	st, err := s.StepTime()
	if err != nil {
		return 0, err
	}
	return float64(prod(s.Shape)) / st / 1e9, nil
}

// Efficiency returns the strong-scaling efficiency vs a 1-node run of the
// same scenario: (GPts/s at N) / (N * GPts/s at 1), matching the paper's
// ideal-percentage annotations.
func (s *Scenario) Efficiency() (float64, error) {
	tput, err := s.ThroughputGPts()
	if err != nil {
		return 0, err
	}
	one := *s
	one.Nodes = 1
	one.Mode = s.Mode
	one.Topology = nil
	base, err := one.ThroughputGPts()
	if err != nil {
		return 0, err
	}
	return tput / (float64(s.Nodes) * base), nil
}

// SelectMode returns the fastest communication pattern for the scenario —
// the automated tuning the paper lists as future work.
func SelectMode(s Scenario) (halo.Mode, float64, error) {
	best := halo.ModeBasic
	bestT := 0.0
	modes := []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull}
	if s.Machine.GPUOnlyBasic {
		modes = modes[:1]
	}
	first := true
	for _, m := range modes {
		sc := s
		sc.Mode = m
		tput, err := sc.ThroughputGPts()
		if err != nil {
			return best, bestT, err
		}
		if first || tput > bestT {
			best, bestT = m, tput
			first = false
		}
	}
	return best, bestT, nil
}

// RooflinePoint is one kernel's position on the integrated roofline
// (paper Fig. 7).
type RooflinePoint struct {
	Kernel  string
	Machine string
	// AI is the operational intensity (flop/byte).
	AI float64
	// GFlops is the modelled achieved performance.
	GFlops float64
	// Bound is "memory" or "compute".
	Bound string
}

// Roofline places a kernel on a machine's roofline.
func Roofline(k KernelChar, m Machine) RooflinePoint {
	ai := k.OperationalIntensity()
	p := RooflinePoint{Kernel: k.Name, Machine: m.Name, AI: ai}
	// Whole-machine-per-rank numbers: scale by ranks/node for node-level
	// figures like the paper's.
	nodeBW := m.MemBW * float64(m.RanksPerNode)
	nodeFlops := m.Flops * float64(m.RanksPerNode)
	if m.GPUOnlyBasic {
		nodeBW, nodeFlops = m.MemBW, m.Flops // per device, as in Fig. 7
	}
	memBound := ai * nodeBW
	if memBound < nodeFlops {
		p.GFlops = memBound * m.Efficiency / 1e9
		p.Bound = "memory"
	} else {
		p.GFlops = nodeFlops * m.Efficiency / 1e9
		p.Bound = "compute"
	}
	return p
}
