package propagators

import (
	"runtime"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
	rt "devigo/internal/runtime"
)

// The worker-count-invariance suite pins the shared-memory tier's
// correctness contract: tiles are disjoint row bands with a fixed
// row-major point order inside each, so the wavefields must be
// *bit-identical* at every worker count, on every engine, with and without
// time tiling. Equality is exact (==), not tolerance-based.
//
// The shapes leave a partial last tile of rt.TileRows rows, and a tile
// count no pooled worker count divides, so every run ends on a short
// tile and the block-cyclic stripes are uneven; unevenTiles checks it.

// unevenTiles fails the test unless rows ends on a partial tile whose
// count no worker count above one divides.
func unevenTiles(t *testing.T, rows int, workers ...int) {
	t.Helper()
	ntiles := (rows + rt.TileRows - 1) / rt.TileRows
	if rows%rt.TileRows == 0 {
		t.Fatalf("%d rows fill whole tiles of %d", rows, rt.TileRows)
	}
	for _, w := range workers {
		if w > 1 && ntiles%w == 0 {
			t.Fatalf("%d tiles split evenly over %d workers", ntiles, w)
		}
	}
}

// runWorkers executes nt steps of a freshly built model with the given
// engine/worker configuration and closes the operator's pool.
func runWorkers(t *testing.T, engine string, workers, k int) (*Model, *RunResult) {
	t.Helper()
	unevenTiles(t, 36, workers)
	m, err := Build("acoustic", serialCfg([]int{36, 24}, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{NT: 20, NReceivers: 4, Exec: Exec{Engine: engine,
		Workers: workers, TimeTile: k}})
	if err != nil {
		t.Fatal(err)
	}
	res.Op.Close()
	return m, res
}

func TestWorkerCountInvariance_Serial(t *testing.T) {
	engines := []string{core.EngineBytecode, core.EngineInterpreter, core.EngineNative}
	for _, engine := range engines {
		for _, k := range []int{1, 4} {
			t.Run(engine+"/k"+string(rune('0'+k)), func(t *testing.T) {
				mRef, resRef := runWorkers(t, engine, 1, k)
				for _, w := range []int{2, 4, 7} {
					mW, resW := runWorkers(t, engine, w, k)
					if resRef.Norm != resW.Norm {
						t.Errorf("workers=%d: norms diverge: %v vs %v", w, resRef.Norm, resW.Norm)
					}
					for it := range resRef.Receivers {
						for r := range resRef.Receivers[it] {
							if resRef.Receivers[it][r] != resW.Receivers[it][r] {
								t.Fatalf("workers=%d: trace (%d,%d) diverges", w, it, r)
							}
						}
					}
					compareModels(t, "workers", engine, mRef, mW)
				}
			})
		}
	}
}

// TestPooledRunSteadyStateAllocs bounds the per-timestep heap allocations
// of the full engine path on a pooled native operator. A long and a short
// run pay identical build/compile/spawn costs, so the malloc-count delta
// over the extra steps is the steady-state figure: kernel dispatch is
// alloc-free and only the source-injection wrapper's small constant
// remains.
func TestPooledRunSteadyStateAllocs(t *testing.T) {
	const short, long, maxPerStep = 10, 110, 32
	unevenTiles(t, 100, 4)
	mallocs := func(nt int) uint64 {
		m, err := Build("acoustic", Config{Shape: []int{100, 96}, SpaceOrder: 4, NBL: 8, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(m, nil, RunConfig{NT: nt, Exec: Exec{Engine: core.EngineNative, Workers: 4}})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		res.Op.Close()
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(short) // warm code paths once
	s, l := mallocs(short), mallocs(long)
	if perStep := (float64(l) - float64(s)) / (long - short); perStep > maxPerStep {
		t.Errorf("pooled native Run allocates %.1f times per step (%d mallocs at nt=%d, %d at nt=%d), want <= %d",
			perStep, l, long, s, short, maxPerStep)
	}
}

func TestPoolMatchesSerialBitExact(t *testing.T) {
	// A pooled run executes the same tiles in the same per-tile order as
	// a serial one; only the scheduling differs, so results match bit for
	// bit.
	for _, engine := range []string{core.EngineBytecode, core.EngineNative} {
		mRef, resRef := runWorkers(t, engine, 1, 1)
		mPool, resPool := runWorkers(t, engine, 4, 1)
		if resRef.Norm != resPool.Norm {
			t.Errorf("%s: norms diverge: serial %v, pool %v", engine, resRef.Norm, resPool.Norm)
		}
		compareModels(t, "pool", engine, mRef, mPool)
	}
}

func TestWorkerCountInvariance_DMP(t *testing.T) {
	// Workers-within-rank composed with ranks: a 4-rank full-overlap run
	// must stay bit-identical
	// across worker counts at both exchange intervals.
	for _, k := range []int{1, 4} {
		var refNorm float64
		var refTraces [][]float64
		for i, w := range []int{1, 7} {
			norm, traces := runWorkersDMP(t, core.EngineNative, w, k)
			if i == 0 {
				refNorm, refTraces = norm, traces
				continue
			}
			if norm != refNorm {
				t.Errorf("k=%d workers=%d: 4-rank norms diverge: %v vs %v", k, w, norm, refNorm)
			}
			for it := range refTraces {
				for r := range refTraces[it] {
					if refTraces[it][r] != traces[it][r] {
						t.Fatalf("k=%d workers=%d: trace (%d,%d) diverges", k, w, it, r)
					}
				}
			}
		}
	}
}

// runWorkersDMP mirrors runEngineDMP with a configurable per-rank worker
// count (each of the 4 ranks spawns its own persistent team and owns 30
// of the 60 rows).
func runWorkersDMP(t *testing.T, engine string, workers, k int) (float64, [][]float64) {
	t.Helper()
	unevenTiles(t, 30, workers)
	res := rank0(t, "acoustic", []int{60, 24}, []int{2, 2}, halo.ModeFull, 4, RunConfig{NT: 16, NReceivers: 4,
		Exec: Exec{Engine: engine, Workers: workers, TimeTile: k}})
	return res.Norm, res.Receivers
}
