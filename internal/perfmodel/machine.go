// Package perfmodel prices a timestep with one α-β + roofline cost
// function, Host.Predict, and ranks the runtime autotuner's candidate
// configurations with it. The function has two parameter sets: DefaultHost,
// the in-process runtime the tuner configures, and a Machine at a node
// count, the paper's ARCHER2 (CPU) and Tursa (GPU) clusters, which this
// repository cannot run on. The functional behaviour of the generated code
// is validated for real by the in-process MPI runtime; the Machine sets
// reproduce the *wall-clock shape* of the paper's strong/weak scaling
// figures.
package perfmodel

import "math"

// Machine describes one execution platform in per-rank terms.
type Machine struct {
	Name string
	// RanksPerNode: 8 MPI ranks/node on Archer2, 1 rank per GPU (4/node)
	// on Tursa.
	RanksPerNode int
	// MemBW is the effective memory bandwidth available to one rank (B/s).
	MemBW float64
	// Flops is the effective SP compute rate of one rank (flop/s).
	Flops float64
	// MsgOverheadIntra/Inter is the per-message cost within / across
	// nodes (s): MPI stack traversal, slab pack/unpack, and for the basic
	// mode the C-land buffer allocation.
	MsgOverheadIntra, MsgOverheadInter float64
	// BWIntra/Inter are per-rank injection bandwidths (B/s).
	BWIntra, BWInter float64
	// BWEffBasic/BWEffSingleStep derate the wire bandwidth per mode: the
	// basic pattern's synchronous multi-step rendezvous cannot keep the
	// link saturated, while the single-step patterns (diagonal/full)
	// stream from preallocated buffers.
	BWEffBasic, BWEffSingleStep float64
	// Efficiency derates the roofline bounds to achievable fractions.
	Efficiency float64
	// ThreadsPerRank is the OpenMP pool size (full mode sacrifices one
	// thread to the MPI progress engine).
	ThreadsPerRank int
	// GPUOnlyBasic mirrors Table I: diagonal/full need preallocated
	// device buffers which are unsupported on GPUs.
	GPUOnlyBasic bool
}

// The paper model's full-mode literals, shared by both clusters: the
// fraction of communication CORE computation hides (MPI_Test prods only
// between tiles), and the per-point cost multiplier of the REMAINDER
// areas (non-contiguous accesses, lost vectorisation — paper Section
// III-h). Only ARCHER2 prices full mode; Tursa is basic-only (Table I).
const (
	overlapEff       = 0.7
	remainderPenalty = 3.0
)

// Host returns the parameter set that prices kernel k on nodes of the
// machine (devices, for a GPU machine). Intra-node message costs and
// bandwidth apply while every rank fits in one node (NVLink for up to
// RanksPerNode GPUs), inter-node ones beyond. A point update costs the
// paper's measured single-node rate where the paper reports one, the
// Efficiency-derated roofline otherwise, and is priced as one instruction
// per point. The exchanged streams of a step travel bundled in one message
// per neighbour (preallocated buffer bundles for diagonal/full, one
// allocation sweep for basic), and full mode gives one of ThreadsPerRank
// threads to the progress engine.
func (m Machine) Host(k KernelChar, nodes int) Host {
	alpha, beta := m.MsgOverheadInter, m.BWInter
	if nodes == 1 || (m.GPUOnlyBasic && nodes <= m.RanksPerNode) {
		alpha, beta = m.MsgOverheadIntra, m.BWIntra
	}
	var perPoint float64
	if anchor, ok := paperAnchor(k.Name, k.SO, m.GPUOnlyBasic); ok {
		perRank := anchor * 1e9 // GPU anchors are per device == per rank
		if !m.GPUOnlyBasic {
			perRank = anchor * 1e9 / float64(m.RanksPerNode)
		}
		perPoint = 1 / perRank
	} else {
		tMem := k.BytesPerPoint() / (m.MemBW * m.Efficiency)
		tFlop := k.FlopsPerPoint / (m.Flops * m.Efficiency)
		perPoint = math.Max(tMem, tFlop)
	}
	progressLoss := 0.0
	if m.ThreadsPerRank > 1 {
		progressLoss = 1.0 / float64(m.ThreadsPerRank)
	}
	return Host{
		SecondsPerInstr:   perPoint,
		MemBandwidth:      math.Inf(1), // the memory bound is inside perPoint
		MsgLatency:        alpha,
		ExchangeBandwidth: beta * m.BWEffSingleStep,
		BasicBandwidth:    beta * m.BWEffBasic,
		BasicPhasePenalty: 1,
		OverlapEff:        overlapEff,
		ProgressLoss:      progressLoss,
		StridePenalty:     remainderPenalty,
	}
}

// Archer2Node returns the CPU platform of the paper (Section IV-A1): dual
// EPYC 7742, 8 ranks x 16 threads per node, HPE Slingshot interconnect.
// Node-level roofline numbers come from the paper's Fig. 7 (288.75 GB/s
// DRAM bandwidth, 6.10 TFLOP/s SP peak), divided evenly over the 8 ranks.
func Archer2Node() Machine {
	const (
		nodeBW    = 288.75e9
		nodeFlops = 6.10e12
		ranks     = 8
	)
	return Machine{
		Name:             "EPYC-7742-node",
		RanksPerNode:     ranks,
		MemBW:            nodeBW / ranks,
		Flops:            nodeFlops / ranks,
		MsgOverheadIntra: 3.0e-6,
		MsgOverheadInter: 8.0e-6,
		BWIntra:          12e9,         // shared-memory copies within a node
		BWInter:          50e9 / ranks, // 2x200Gb/s NICs shared by 8 ranks
		BWEffBasic:       0.80,
		BWEffSingleStep:  0.95,
		Efficiency:       0.85,
		ThreadsPerRank:   16,
	}
}

// TursaA100 returns the GPU platform (Section IV-A2): NVIDIA A100-80,
// 2035 GB/s HBM, 17.59 TFLOP/s SP (roofline Fig. 7), 4 GPUs per node with
// NVLink intra-node and 4x200 Gb/s InfiniBand inter-node. One MPI rank per
// GPU.
func TursaA100() Machine {
	return Machine{
		Name:             "A100-80",
		RanksPerNode:     4,
		MemBW:            2035e9,
		Flops:            17.59e12,
		MsgOverheadIntra: 6.0e-6,    // device-side message setup
		MsgOverheadInter: 15.0e-6,   // host staging + IB
		BWIntra:          250e9,     // NVLink
		BWInter:          100e9 / 4, // 4x200Gb/s IB shared by the node's GPUs
		BWEffBasic:       0.80,
		BWEffSingleStep:  0.95,
		Efficiency:       0.75,
		ThreadsPerRank:   1,
		GPUOnlyBasic:     true,
	}
}
