package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"devigo/internal/halo"
)

// This file is the runtime autotuner: the paper's "the compiler should
// pick the MPI-X configuration" claim turned into a subsystem. Package
// core builds an OpProfile for each compiled operator (instruction counts
// from the compiled kernels, exchanged streams from the schedule, the
// slowest rank's box from the grid decomposition) and settles through
// Tune, the "search" policy: a bounded empirical search over the model's
// shortlist, which returns the cost model's top-ranked configuration when
// no trial fits the budget. Every candidate configuration is bit-exact —
// halo mode, worker count and tile size never change results, only
// speed — which is what makes in-place tuning on the live simulation
// sound.

// ExecConfig is one runnable execution configuration of an operator: the
// communication pattern plus the shared-memory decomposition knobs and
// the halo-exchange interval.
type ExecConfig struct {
	// Mode is the halo-exchange pattern (ModeNone for serial runs).
	Mode halo.Mode
	// Workers is the worker-pool size (simulated OpenMP threads).
	Workers int
	// TileRows is the outer-dimension tile height (the pool's unit of work).
	TileRows int
	// TimeTile is the halo-exchange interval k: deep ghost regions
	// exchanged once every k steps with redundant shell recompute in
	// between. 0 and 1 both mean the classic exchange-every-step schedule.
	TimeTile int
}

// String renders the configuration as "mode/w<N>/t<M>", with a "/k<K>"
// suffix when the exchange interval exceeds 1.
func (c ExecConfig) String() string {
	s := fmt.Sprintf("%s/w%d/t%d", c.Mode, c.Workers, c.TileRows)
	if c.TimeTile > 1 {
		s += fmt.Sprintf("/k%d", c.TimeTile)
	}
	return s
}

// OpProfile is everything the autotuner needs to know about one compiled
// operator and its execution environment. Core derives it from the
// operator's compiled kernels, its halo schedule, and the grid
// decomposition; every rank of a distributed run derives the identical
// profile (the decomposition is globally known), so configuration
// decisions are deterministic without communication.
type OpProfile struct {
	// LocalShape is the slowest rank's owned box (the global shape when
	// serial) — the per-step critical path is computed on it.
	LocalShape []int
	// InstrsPerPoint is the summed per-point instruction count of the
	// operator's compiled kernels, in the compiling engine's own unit
	// (fused-chain links for the production native engine).
	InstrsPerPoint int
	// StreamsPerPoint counts distinct (field, timeOffset) data streams
	// touched per point: 4 bytes each of DRAM traffic per update.
	StreamsPerPoint int
	// HaloStreams is the number of (field, timeOffset) buffers exchanged
	// per timestep; they share one message per neighbour.
	HaloStreams int
	// HaloWidth is the widest exchanged ghost region.
	HaloWidth int
	// Ranks is the world size (1 = serial).
	Ranks int
	// MaxWorkers caps the worker-pool size (typically GOMAXPROCS).
	MaxWorkers int
	// Mode is the currently configured halo mode (ModeNone when serial).
	Mode halo.Mode
	// TimeTile is the currently configured halo-exchange interval.
	TimeTile int
	// MaxTimeTile bounds the exchange-interval axis of the candidate
	// space: the largest interval whose deep halos fit the decomposition's
	// chunks and the operator's current ghost allocation (the tuner never
	// reallocates storage mid-run). 0 and 1 both collapse the axis to k=1.
	MaxTimeTile int
	// TileStride is the per-timestep ghost-shell consumption (the summed
	// stencil radii of the schedule's clusters, max over dimensions) — the
	// increment by which the exchanged depth grows per extra substep.
	TileStride int
	// TileStreams is the number of (field, time-offset) buffers a
	// tile-start deep exchange ships (>= HaloStreams: older time levels
	// that a k=1 schedule never exchanges join the set).
	TileStreams int
	// ForcedWorkers pins a user-specified worker count: when > 0 the
	// candidate set only contains that value, so explicit configuration
	// always wins over the tuner.
	ForcedWorkers int
	// TileRows is the operator's outer-dimension tile height, the
	// constant runtime.TileRows. It is not a tuned axis — no height beat
	// it outside run-to-run noise on any measured group (CHANGES.md
	// records the sweep) — so every candidate carries it.
	TileRows int
}

// Host is one parameter set of the cost function Predict: the machine a
// timestep is priced on. DefaultHost describes the in-process runtime the
// autotuner configures (native-kernel dispatch, goroutine scheduling, the
// in-process MPI); Machine.Host describes a paper cluster at a node count.
// For the tuner absolute accuracy is not required — only the induced
// *ranking* matters, and the empirical search (Tune) corrects residual
// model error on the shortlist.
type Host struct {
	// SecondsPerInstr is the per-point cost of one instruction of the
	// production (native) engine: one fused-chain link. Which engine runs
	// is package core's decision alone; the model prices the one the tuner
	// ships with and has no engine axis. A cluster prices a whole point
	// update as one instruction.
	SecondsPerInstr float64
	// MemBandwidth is the sustainable DRAM bandwidth of the compute loop
	// (bytes/s); per-point cost is the max of the instruction-latency and
	// memory-traffic terms, a two-bound roofline.
	MemBandwidth float64
	// WorkerSpawn is the per-worker coordination cost of one multi-worker
	// kernel launch on the persistent pool: Predict charges it once per
	// worker per launch, beside PoolSync.
	WorkerSpawn float64
	// PoolSync is the fixed fork-join/sync cost of one multi-worker kernel
	// launch: publish the work, wake the team, join at the barrier. The
	// default is an order-of-magnitude figure; the operator overrides it
	// with the measured dispatch cost of its persistent pool
	// (runtime.Pool.SyncCost) before planning.
	PoolSync float64
	// TileOverhead is the tile driver's setup cost of one tile: Predict
	// charges it for every tile of the slowest worker's share.
	TileOverhead float64
	// MsgLatency is the per-message cost of a halo exchange.
	MsgLatency float64
	// ExchangeBandwidth is the halo pack/copy/unpack bandwidth (bytes/s)
	// of the single-phase patterns (diagonal, full); BasicBandwidth is
	// that of basic's dimension sweep.
	ExchangeBandwidth, BasicBandwidth float64
	// BasicPhasePenalty multiplies basic-mode communication time: the
	// dimension sweep serialises into multiple rendezvous phases and
	// allocates exchange buffers per call.
	BasicPhasePenalty float64
	// OverlapEff is the fraction of communication full mode hides under
	// CORE computation.
	OverlapEff float64
	// ProgressLoss is the fraction of a rank's compute capacity full mode
	// gives to a communication progress thread, which slows CORE: the
	// paper's clusters sacrifice one thread per rank to MPI_Test prods.
	ProgressLoss float64
	// StridePenalty multiplies per-point cost in REMAINDER slabs
	// (non-contiguous accesses on the thin boundary boxes).
	StridePenalty float64
}

// DefaultHost returns the stock calibration for the in-process runtime.
// The constants are order-of-magnitude figures for a contemporary x86
// core; they only need to induce the right ranking, and the search policy
// re-measures the shortlist anyway.
//
// SecondsPerInstr is the order-of-magnitude 1 ns of a register-VM
// instruction scaled by the measured native/bytecode ratio: (native.
// kernel_ns_per_point / native.instrs_per_point) over the same quotient
// for bytecode, from the repo benchmark's per-layer kernel probes
// (`bench/run.sh --workload strong-2rank --trace 1`: acoustic so-8 on a
// cache-resident 256² grid, 32 links against 51 VM instructions per
// point) on a 2-vCPU Xeon @ 2.1 GHz VM: 5.3 ns against 26.1 ns per point,
// 0.167 against 0.51 ns per instruction, ratio 0.33 as the median of five
// runs (0.31–0.34). The absolute figure that measurement implies
// (0.167 ns per link) is not adopted here: recalibrating the constants
// from the host is ROADMAP item 7.
func DefaultHost() Host {
	return Host{
		SecondsPerInstr:   1.0e-9 * 0.33,
		MemBandwidth:      8e9,
		WorkerSpawn:       3e-6,
		PoolSync:          2.0e-6,
		TileOverhead:      2e-7,
		MsgLatency:        5e-6,
		ExchangeBandwidth: 4e9,
		BasicBandwidth:    4e9,
		BasicPhasePenalty: 1.6,
		OverlapEff:        0.5,
		ProgressLoss:      0, // both transports deliver without the receiver: no progress thread
		StridePenalty:     1.5,
	}
}

// MaxWorkersDefault returns the default worker-pool cap: GOMAXPROCS.
func MaxWorkersDefault() int { return runtime.GOMAXPROCS(0) }

// Candidates enumerates the configuration space the autotuner considers
// for a profile: halo modes and exchange intervals (when distributed) and
// power-of-two worker counts up to the host cap, all at the operator's
// tile height. A forced worker count collapses its axis to the pinned
// value. The enumeration is deterministic, and devigo-bench's exhaustive
// autotune sweep iterates exactly this set, so a tuner choice always has a
// sweep entry to be compared against.
func Candidates(p OpProfile) []ExecConfig {
	rows := 1
	if len(p.LocalShape) > 0 {
		rows = p.LocalShape[0]
	}
	var workers []int
	switch {
	case p.ForcedWorkers > 0:
		workers = []int{p.ForcedWorkers}
	default:
		wcap := p.MaxWorkers
		if wcap < 1 {
			wcap = MaxWorkersDefault()
		}
		if wcap > rows {
			wcap = rows
		}
		for w := 1; w <= wcap; w *= 2 {
			workers = append(workers, w)
		}
		if last := workers[len(workers)-1]; last < wcap {
			workers = append(workers, wcap)
		}
	}
	modes := []halo.Mode{p.Mode}
	if p.Ranks > 1 && p.Mode != halo.ModeNone {
		modes = []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull}
	}
	ks := []int{1}
	if p.Ranks > 1 && p.Mode != halo.ModeNone {
		for _, k := range []int{2, 4, 8} {
			if k <= p.MaxTimeTile {
				ks = append(ks, k)
			}
		}
	}
	var out []ExecConfig
	for _, m := range modes {
		for _, w := range workers {
			for _, k := range ks {
				out = append(out, ExecConfig{Mode: m, Workers: w, TileRows: p.TileRows, TimeTile: k})
			}
		}
	}
	return out
}

// Predict models one timestep's wall time for a profile under a
// configuration: a two-bound per-point compute cost spread over the worker
// team, the redundant ghost shell of a time tile, an alpha-beta exchange
// cost over halo.AmortizedTraffic, and CORE/REMAINDER overlap for full
// mode. It is the repository's one step-cost function; the Host is its
// parameter set.
func (h Host) Predict(p OpProfile, c ExecConfig) float64 {
	pts := float64(prod(p.LocalShape))
	rows := 1
	if len(p.LocalShape) > 0 {
		rows = p.LocalShape[0]
	}
	tile := c.TileRows
	if tile < 1 || tile > rows {
		tile = rows
	}
	ntiles := (rows + tile - 1) / tile
	w := c.Workers
	if w < 1 {
		w = 1
	}
	if p.MaxWorkers > 0 && w > p.MaxWorkers {
		w = p.MaxWorkers
	}
	if w > ntiles {
		w = ntiles
	}

	instrPP := float64(p.InstrsPerPoint) * h.SecondsPerInstr
	memPP := 4 * float64(p.StreamsPerPoint) / h.MemBandwidth
	// The slowest worker drains ceil(ntiles/w) tiles; tile quantisation is
	// what makes tiny tiles balance better and huge tiles serialise.
	tilesWorker := (ntiles + w - 1) / w
	rowsWorker := tilesWorker * tile
	if rowsWorker > rows {
		rowsWorker = rows
	}
	// Parallel efficiency is a two-bound story: the instruction leg scales
	// with the slowest worker's share of the rows, but the memory-traffic
	// leg does not — DRAM bandwidth is shared across the team, so a
	// bandwidth-bound profile gains nothing from more workers and the model
	// correctly refuses to charge sync overhead for phantom speedup.
	instrTime := pts * float64(rowsWorker) / float64(rows) * instrPP
	memTime := pts * memPP
	compute := instrTime
	if memTime > compute {
		compute = memTime
	}
	compute += float64(tilesWorker) * h.TileOverhead
	if w > 1 {
		// One pool dispatch (publish + wake + join) plus the per-worker
		// coordination cost per kernel launch.
		compute += h.PoolSync + float64(w)*h.WorkerSpawn
	}
	if p.Ranks <= 1 || c.Mode == halo.ModeNone {
		return compute
	}

	// An exchange interval k grows per-step compute by the average
	// redundant ghost-shell volume (exactly 1 at k = 1), and amortizes the
	// messages by k over a deep exchange of TileStreams buffers at depth
	// HaloWidth + (k-1)·stride, the buffers sharing one message per
	// neighbour (two exchanging sweeps at k = 1 send twice as many).
	k := max(c.TimeTile, 1)
	shell := 0.0
	for j := 0; j < k; j++ {
		pj := 1.0
		for d := range p.LocalShape {
			pj *= float64(p.LocalShape[d] + 2*j*p.TileStride)
		}
		shell += pj
	}
	compute *= shell / (float64(k) * pts)
	width := p.HaloWidth + (k-1)*p.TileStride
	streams := p.HaloStreams
	if k > 1 && p.TileStreams > 0 {
		streams = p.TileStreams
	}
	nm, bytes := halo.AmortizedTraffic(c.Mode, p.LocalShape, width, k, streams)
	bw := h.ExchangeBandwidth
	if c.Mode == halo.ModeBasic {
		bw = h.BasicBandwidth
	}
	comm := nm*h.MsgLatency + bytes/bw
	switch c.Mode {
	case halo.ModeBasic:
		return compute + comm*h.BasicPhasePenalty
	case halo.ModeFull:
		corePts := 1.0
		for d := range p.LocalShape {
			side := p.LocalShape[d] - 2*p.HaloWidth
			if side < 0 {
				side = 0
			}
			corePts *= float64(side)
		}
		remPts := pts - corePts
		coreCompute := compute * corePts / pts / (1 - h.ProgressLoss)
		remCompute := compute * remPts / pts * h.StridePenalty
		hidden := comm * h.OverlapEff
		overlapped := coreCompute
		if hidden > overlapped {
			overlapped = hidden
		}
		return overlapped + (comm - hidden) + remCompute
	}
	return compute + comm
}

// Plan ranks the candidate configurations of a profile by predicted step
// time, fastest first. Ties break deterministically (mode, then workers,
// then interval) so every rank of a distributed run computes the same
// order from the same profile.
func Plan(h Host, p OpProfile) []ExecConfig {
	cands := Candidates(p)
	pred := make([]float64, len(cands))
	for i, c := range cands {
		pred[i] = h.Predict(p, c)
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if pred[idx[a]] != pred[idx[b]] {
			return pred[idx[a]] < pred[idx[b]]
		}
		ca, cb := cands[idx[a]], cands[idx[b]]
		if ca.Mode != cb.Mode {
			return ca.Mode < cb.Mode
		}
		if ca.Workers != cb.Workers {
			return ca.Workers < cb.Workers
		}
		return ca.TimeTile < cb.TimeTile
	})
	out := make([]ExecConfig, len(cands))
	for i, j := range idx {
		out[i] = cands[j]
	}
	return out
}

// ErrTuneBudget is returned by a Tune measure callback to signal that no
// further trial can be afforded (e.g. the run has too few timesteps
// left); Tune stops and settles on the best configuration measured so
// far.
var ErrTuneBudget = errors.New("perfmodel: tuning budget exhausted")

// DefaultSearchTrials is the number of model-shortlisted configurations
// the search policy measures empirically.
const DefaultSearchTrials = 6

// Trial records one empirical measurement of the search.
type Trial struct {
	Config  ExecConfig
	Seconds float64
}

// tuneGroup is the qualitative half of a configuration: the
// communication pattern and whether it time-tiles. The empirical search
// decides the group first, then refines the quantitative knobs (workers,
// exact interval) within it.
type tuneGroup struct {
	mode  halo.Mode
	tiled bool
}

func groupOf(c ExecConfig) tuneGroup { return tuneGroup{c.Mode, c.TimeTile > 1} }

// groupHeads returns the model's top-ranked candidate of every group, in
// rank order.
func groupHeads(plan []ExecConfig) []ExecConfig {
	seen := map[tuneGroup]bool{}
	var heads []ExecConfig
	for _, c := range plan {
		if g := groupOf(c); !seen[g] {
			seen[g] = true
			heads = append(heads, c)
		}
	}
	return heads
}

// Tune is the bounded empirical search, in two phases. Phase 1 measures
// the model's top candidate of every qualitatively distinct group —
// (halo mode, deep-tiled or not) — so the communication patterns and the
// exchange-interval axis are always spanned even when the cost model
// misranks a whole mode. Phase 2 spends up to DefaultSearchTrials further
// measurements refining the quantitative knobs (workers, the exact
// interval) within the winning group, in model-rank order. The
// measure callback is expected to time a few real timesteps of the live
// simulation — sound because every candidate is bit-exact — and may
// return ErrTuneBudget to stop the search; the best measurement so far
// wins, or the model's top choice, Plan's first entry, if nothing was
// measured.
func Tune(h Host, p OpProfile, measure func(ExecConfig) (float64, error)) (ExecConfig, []Trial, error) {
	plan := Plan(h, p)
	if len(plan) == 0 {
		return ExecConfig{}, nil, errors.New("perfmodel: empty candidate space")
	}
	var log []Trial
	run := func(cands []ExecConfig) (bool, error) {
		for _, cfg := range cands {
			s, err := measure(cfg)
			if errors.Is(err, ErrTuneBudget) {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			log = append(log, Trial{Config: cfg, Seconds: s})
		}
		return true, nil
	}
	pickBest := func() (Trial, bool) {
		ok := false
		var best Trial
		for _, t := range log {
			if math.IsNaN(t.Seconds) {
				continue
			}
			if !ok || t.Seconds < best.Seconds {
				best, ok = t, true
			}
		}
		return best, ok
	}

	// Phase 1: one trial per group.
	if _, err := run(groupHeads(plan)); err != nil {
		return ExecConfig{}, log, err
	}
	best, ok := pickBest()
	if !ok {
		return plan[0], log, nil
	}
	// Phase 2: refine within the winning group.
	winner := groupOf(best.Config)
	var refine []ExecConfig
	for _, c := range plan {
		if groupOf(c) != winner || c == best.Config {
			continue
		}
		refine = append(refine, c)
		if len(refine) >= DefaultSearchTrials {
			break
		}
	}
	if _, err := run(refine); err != nil {
		return ExecConfig{}, log, err
	}
	best, _ = pickBest()
	return best.Config, log, nil
}
