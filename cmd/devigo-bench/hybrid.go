package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"

	"devigo/internal/core"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/propagators"
	devruntime "devigo/internal/runtime"
)

// HybridSweepPoint is one engine x worker-count measurement of the
// persistent-pool scaling sweep. BitExact records that the run's norm and
// receiver traces matched the same engine's 1-worker run bit for bit —
// the shared-memory tier's correctness contract.
type HybridSweepPoint struct {
	Engine  string  `json:"engine"`
	Workers int     `json:"workers"`
	Gptss   float64 `json:"gptss"`
	// SpeedupVs1Worker isolates pure worker scaling within one engine.
	SpeedupVs1Worker float64 `json:"speedup_vs_1worker"`
	BitExact         bool    `json:"bit_exact_vs_1worker"`
}

// HybridReport is the BENCH_hybrid.json schema: the MPI+X shared-memory
// tier's certification record — zero-allocation dispatch, worker scaling
// with bit-exactness, the measured dispatch sync cost, the joint
// autotuner's worker choice and the pool's obs counters from a 4-rank
// full-overlap run.
type HybridReport struct {
	Scenario   string `json:"scenario"`
	Shape      []int  `json:"shape"`
	SpaceOrder int    `json:"space_order"`
	NT         int    `json:"nt"`
	// HostCores / HostMaxProcs fingerprint the generating machine: the
	// scaling and autotuner-selection gates only apply when the host had
	// >= 4 cores (a 1-core container caps worker parallelism physically,
	// not logically).
	HostCores    int `json:"host_cores"`
	HostMaxProcs int `json:"host_maxprocs"`
	// PoolDispatchAllocs is the heap allocations per pool dispatch in
	// steady state, measured over many raw Pool.Run calls on a warmed
	// 4-worker team. The dispatch protocol performs no goroutine, channel
	// or closure allocation, so this must be exactly 0.
	PoolDispatchAllocs float64 `json:"pool_dispatch_allocs"`
	// SteadyAllocsPerStep is the full native-engine Apply path's amortized
	// per-timestep allocations on a 4-worker operator (long run minus
	// short run, divided by the extra steps — per-Apply setup cancels).
	// The kernel dispatch contributes zero; the small residual is the
	// source-injection wrapper.
	SteadyAllocsPerStep float64 `json:"steady_allocs_per_step"`
	// SyncCostSec is the measured per-dispatch wake/join overhead of a
	// 4-worker pool on this machine (Pool.SyncCost) — the figure the
	// autotuner injects as perfmodel.Host.PoolSync.
	SyncCostSec float64            `json:"sync_cost_sec"`
	Sweep       []HybridSweepPoint `json:"sweep"`
	// AutotuneModelWorkers / AutotuneSearchWorkers are the worker counts
	// the two policies settle on with the (mode x workers x tile x k)
	// space open; on a multi-core host the model policy must exploit the
	// workers axis.
	AutotuneModelWorkers  int            `json:"autotune_model_workers"`
	AutotuneSearchWorkers int            `json:"autotune_search_workers"`
	AutotuneDecisions     []obs.Decision `json:"autotune_decisions,omitempty"`
	// Pool* snapshot rank 0's pool counters after the 4-rank full-mode
	// time-tiled run (persistent team surviving every step, stealing
	// enabled on the shell sweeps).
	PoolDispatches int64 `json:"pool_dispatches"`
	PoolSyncNs     int64 `json:"pool_sync_ns"`
	PoolIdleNs     int64 `json:"pool_idle_ns"`
	PoolSteals     int64 `json:"pool_steals"`
	// Obs embeds the metrics registry of the 4-rank run (worker streams,
	// pool counters aggregated over all ranks).
	Obs obs.Metrics `json:"obs"`
}

// hybridSO is the experiment's fixed space order: deep enough for real
// per-tile work, cheap enough that the interpreter leg of the sweep
// stays fast.
const hybridSO = 4

// hybridTask is the minimal real Task of the raw-dispatch certification:
// every tile bumps its own slot, so the work is observable but
// allocation-free by construction.
type hybridTask struct{ hits []int64 }

func (t *hybridTask) RunTile(w, tile int) { t.hits[tile]++ }

// runHybrid measures the persistent MPI+X worker runtime and writes
// BENCH_hybrid.json: allocation certification, a worker scaling sweep
// over all three engines with bit-exactness against the 1-worker baseline, the joint
// autotuner's worker selection and the pool counters of a 4-rank
// full-overlap time-tiled run.
func runHybrid(size, nt int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	report := HybridReport{
		Scenario: "hybrid", Shape: []int{size, size}, SpaceOrder: hybridSO, NT: nt,
		HostCores: goruntime.NumCPU(), HostMaxProcs: goruntime.GOMAXPROCS(0),
	}
	fmt.Printf("MPI+X hybrid runtime, %dx%d so-%02d, %d timesteps (this machine, %d cores)\n",
		size, size, hybridSO, nt, report.HostCores)

	// --- Zero-allocation dispatch certification ---------------------------
	obs.DisableAll()
	obs.Reset()
	report.PoolDispatchAllocs = measurePoolDispatchAllocs()
	var err error
	if report.SteadyAllocsPerStep, err = measureSteadyAllocsPerStep(size); err != nil {
		return fmt.Errorf("steady-state alloc measurement: %w", err)
	}
	fmt.Printf("  pool dispatch allocs: %.3f/dispatch   steady engine allocs: %.3f/step\n",
		report.PoolDispatchAllocs, report.SteadyAllocsPerStep)

	// --- Measured dispatch sync cost --------------------------------------
	p := devruntime.NewPool(4, 0)
	report.SyncCostSec = p.SyncCost()
	p.Close()
	fmt.Printf("  pool sync cost (4 workers): %.2f us/dispatch\n", report.SyncCostSec*1e6)

	// --- Worker scaling sweep, all three engines --------------------------
	fmt.Printf("%-14s %8s %14s %10s %10s\n", "engine", "workers", "GPts/s", "vs w=1", "bit-exact")
	for _, engine := range []string{core.EngineInterpreter, core.EngineBytecode, core.EngineNative} {
		ref, err := hybridRun(engine, 1, nt, size)
		if err != nil {
			return err
		}
		for _, w := range []int{1, 2, 4, 7} {
			res := ref
			if w != 1 {
				if res, err = hybridRun(engine, w, nt, size); err != nil {
					return err
				}
			}
			pt := HybridSweepPoint{Engine: engine, Workers: w, Gptss: res.Perf.GPtss(),
				BitExact: hybridBitExact(ref, res)}
			if ref.Perf.GPtss() > 0 {
				pt.SpeedupVs1Worker = pt.Gptss / ref.Perf.GPtss()
			}
			report.Sweep = append(report.Sweep, pt)
			fmt.Printf("%-14s %8d %14.4f %9.2fx %10v\n", engine, w, pt.Gptss, pt.SpeedupVs1Worker, pt.BitExact)
		}
	}

	// --- Joint autotuner worker selection ---------------------------------
	obs.EnableMetrics()
	obs.Reset()
	mw, sw, decisions, err := hybridAutotune(size)
	if err != nil {
		return err
	}
	obs.DisableAll()
	obs.Reset()
	report.AutotuneModelWorkers, report.AutotuneSearchWorkers = mw, sw
	report.AutotuneDecisions = decisions
	fmt.Printf("  autotune worker choice: model=%d search=%d (max %d)\n", mw, sw, report.HostMaxProcs)

	// --- Pool counters under MPI+X full overlap ---------------------------
	if err := hybridDMP(size, nt, &report); err != nil {
		return err
	}
	fmt.Printf("  4-rank full/k4 pool: %d dispatches, sync %.2f ms, idle %.2f ms, %d steals\n",
		report.PoolDispatches, float64(report.PoolSyncNs)/1e6,
		float64(report.PoolIdleNs)/1e6, report.PoolSteals)

	path := filepath.Join(outDir, "BENCH_hybrid.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// measurePoolDispatchAllocs times nothing — it counts heap allocations
// across many dispatches on a warmed 4-worker team (all goroutines
// included: a parked worker that allocated on wake would show up here).
func measurePoolDispatchAllocs() float64 {
	const ntiles, rounds = 64, 200
	p := devruntime.NewPool(4, 0)
	defer p.Close()
	task := &hybridTask{hits: make([]int64, ntiles)}
	for i := 0; i < 16; i++ {
		p.Run(task, ntiles, i, i%2 == 0, nil)
	}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		p.Run(task, ntiles, i, i%2 == 0, nil)
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / rounds
}

// measureSteadyAllocsPerStep isolates the per-timestep allocations of
// the full engine path on a pooled operator: a long run and a short run
// pay identical build/compile/spawn costs, so the malloc-count delta
// over the extra steps is the steady-state figure.
func measureSteadyAllocsPerStep(size int) (float64, error) {
	const short, long = 10, 110
	run := func(nt int) (uint64, error) {
		m, err := propagators.Build("acoustic", propagators.Config{
			Shape: []int{size, size}, SpaceOrder: hybridSO, NBL: 8, Velocity: 1.5,
		})
		if err != nil {
			return 0, err
		}
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		res, err := propagators.Run(m, nil, propagators.RunConfig{
			NT: nt, Engine: core.EngineNative, Workers: 4, TileRows: 4,
		})
		goruntime.ReadMemStats(&m1)
		if err != nil {
			return 0, err
		}
		res.Op.Close()
		return m1.Mallocs - m0.Mallocs, nil
	}
	if _, err := run(short); err != nil { // warm code paths once
		return 0, err
	}
	s, err := run(short)
	if err != nil {
		return 0, err
	}
	l, err := run(long)
	if err != nil {
		return 0, err
	}
	if l < s {
		return 0, nil
	}
	return float64(l-s) / float64(long-short), nil
}

// hybridRun builds a fresh acoustic model (every run needs pristine
// initial state for the bit-exactness comparison) and measures nt steps.
func hybridRun(engine string, workers, nt, size int) (*propagators.RunResult, error) {
	m, err := propagators.Build("acoustic", propagators.Config{
		Shape: []int{size, size}, SpaceOrder: hybridSO, NBL: 8, Velocity: 1.5,
	})
	if err != nil {
		return nil, err
	}
	res, err := propagators.Run(m, nil, propagators.RunConfig{
		NT: nt, NReceivers: 4, Engine: engine,
		Workers: workers, TileRows: 4,
	})
	if err != nil {
		return nil, fmt.Errorf("%s w=%d: %w", engine, workers, err)
	}
	res.Op.Close()
	if res.Perf.GPtss() <= 0 {
		return nil, fmt.Errorf("%s w=%d: degenerate measurement (no throughput)", engine, workers)
	}
	return res, nil
}

// hybridBitExact compares two runs' norms and receiver traces exactly
// (==, no tolerance): the static tile partition makes every worker count
// execute identical floating-point operations in identical order.
func hybridBitExact(a, b *propagators.RunResult) bool {
	if a.Norm != b.Norm || len(a.Receivers) != len(b.Receivers) {
		return false
	}
	for t := range a.Receivers {
		for r := range a.Receivers[t] {
			if a.Receivers[t][r] != b.Receivers[t][r] {
				return false
			}
		}
	}
	return true
}

// hybridAutotune lets both policies configure a fresh operator with the
// workers axis open and reports their chosen team sizes plus the
// decision log.
func hybridAutotune(size int) (modelW, searchW int, decisions []obs.Decision, err error) {
	tuned := func(policy string, nt int) (int, error) {
		m, err := propagators.Build("acoustic", propagators.Config{
			Shape: []int{size, size}, SpaceOrder: hybridSO, NBL: 8, Velocity: 1.5,
		})
		if err != nil {
			return 0, err
		}
		res, err := propagators.Run(m, nil, propagators.RunConfig{
			NT: nt, Engine: core.EngineNative, Autotune: policy,
		})
		if err != nil {
			return 0, fmt.Errorf("autotune %s: %w", policy, err)
		}
		w := res.Op.Config().Workers
		res.Op.Close()
		return w, nil
	}
	if modelW, err = tuned(core.AutotuneModel, 16); err != nil {
		return 0, 0, nil, err
	}
	// The search policy spends warmup + trial steps before settling; give
	// it headroom past the budget so the choice is measured, not an
	// early-settle fallback.
	if searchW, err = tuned(core.AutotuneSearch, 64); err != nil {
		return 0, 0, nil, err
	}
	return modelW, searchW, obs.Snapshot().Decisions, nil
}

// hybridDMP runs the MPI+X composition — 4 ranks x 4 workers, full
// overlap mode, exchange interval 4 (stealing live on the shrinking
// shell sweeps) — and snapshots rank 0's pool counters plus the obs
// registry into the report.
func hybridDMP(size, nt int, report *HybridReport) error {
	obs.EnableMetrics()
	obs.Reset()
	defer func() {
		obs.DisableAll()
		obs.Reset()
	}()
	const ranks = 4
	shape := []int{size, size}
	errs := make([]error, ranks)
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) {
		g := grid.MustNew(shape, nil)
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		cart, err := mpi.CartCreate(c, dec.Topology, nil)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		cfg := propagators.Config{Shape: shape, SpaceOrder: hybridSO, NBL: 2,
			Velocity: 1.5, Decomp: dec, Rank: c.Rank()}
		m, err := propagators.Build("acoustic", cfg)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		ctx := &core.Context{Comm: c, Cart: cart, Decomp: dec, Mode: halo.ModeFull}
		res, err := propagators.Run(m, ctx, propagators.RunConfig{
			NT: nt, Engine: core.EngineNative, Workers: 4, TileRows: 4, TimeTile: 4,
		})
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		if c.Rank() == 0 {
			if p := res.Op.Pool(); p != nil {
				st := p.Stats()
				report.PoolDispatches = st.Dispatches
				report.PoolSyncNs = st.SyncNs
				report.PoolIdleNs = st.IdleNs
				report.PoolSteals = st.Steals
			}
		}
		res.Op.Close()
	})
	if err != nil {
		return err
	}
	for r, e := range errs {
		if e != nil {
			return fmt.Errorf("rank %d: %w", r, e)
		}
	}
	report.Obs = obs.Snapshot()
	return nil
}
