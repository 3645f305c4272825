package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"devigo/internal/grid"
	"devigo/internal/obs"
)

// recordTask records, per tile, how many times it ran and which worker
// ran it. Each tile has one static owner, so the owner slots are written
// at most once per dispatch (re-verified by the hits counter).
type recordTask struct {
	hits  []atomic.Int32
	owner []atomic.Int32
	// slowWorker, when >= 0, makes that worker sleep on every tile it
	// executes so the others drain their stripes long before it does.
	slowWorker int
}

func newRecordTask(ntiles int) *recordTask {
	return &recordTask{
		hits:       make([]atomic.Int32, ntiles),
		owner:      make([]atomic.Int32, ntiles),
		slowWorker: -1,
	}
}

func (rt *recordTask) RunTile(w, tile int) {
	if w == rt.slowWorker {
		time.Sleep(200 * time.Microsecond)
	}
	rt.hits[tile].Add(1)
	rt.owner[tile].Store(int32(w))
}

func (rt *recordTask) check(t *testing.T, ntiles int) {
	t.Helper()
	for i := 0; i < ntiles; i++ {
		if got := rt.hits[i].Load(); got != 1 {
			t.Fatalf("tile %d ran %d times, want exactly once", i, got)
		}
	}
}

func TestPoolCoversAllTilesExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, ntiles := range []int{1, 2, 7, 13, 64} {
			p := NewPool(workers, 0)
			rt := newRecordTask(ntiles)
			p.Run(rt, ntiles, 0, nil)
			rt.check(t, ntiles)
			p.Close()
		}
	}
}

func TestPoolStaticPartitionIsDeterministic(t *testing.T) {
	// Tile i must run on its static owner i % W — the locality contract:
	// worker w touches the same rows every dispatch.
	const workers, ntiles = 4, 23
	p := NewPool(workers, 0)
	defer p.Close()
	for step := 0; step < 5; step++ {
		rt := newRecordTask(ntiles)
		p.Run(rt, ntiles, step, nil)
		rt.checkOwners(t, ntiles, workers)
	}
}

// checkOwners asserts that every tile ran exactly once, on its static
// owner i % workers.
func (rt *recordTask) checkOwners(t *testing.T, ntiles, workers int) {
	t.Helper()
	rt.check(t, ntiles)
	for i := 0; i < ntiles; i++ {
		if got := int(rt.owner[i].Load()); got != i%workers {
			t.Fatalf("tile %d ran on worker %d, want static owner %d", i, got, i%workers)
		}
	}
}

func TestPoolSlowWorkerKeepsItsStripe(t *testing.T) {
	// Worker 1 sleeps on every tile it executes. The fast workers finish
	// their stripes and wait at the join: the partition does not bend to
	// load, so every tile still runs exactly once on its static owner.
	const workers, ntiles = 4, 32
	p := NewPool(workers, 0)
	defer p.Close()
	rt := newRecordTask(ntiles)
	rt.slowWorker = 1
	p.Run(rt, ntiles, 0, nil)
	rt.checkOwners(t, ntiles, workers)
}

func TestPoolDispatchAllocs(t *testing.T) {
	// The tentpole contract: a steady-state dispatch allocates nothing —
	// no goroutines, channels or closures per step.
	p := NewPool(4, 0)
	defer p.Close()
	rt := newRecordTask(16)
	p.Run(rt, 16, 0, nil) // warm
	if avg := testing.AllocsPerRun(50, func() {
		p.Run(rt, 16, 1, nil)
	}); avg != 0 {
		t.Errorf("dispatch allocates %.1f objects/run, want 0", avg)
	}
}

func TestPoolProgressRunsOnCaller(t *testing.T) {
	// progress is the full-mode overlap hook: prodded by worker 0 between
	// its tiles and once before the join. It runs only on the calling
	// goroutine, so a plain counter is race-free.
	const workers, ntiles = 4, 16
	p := NewPool(workers, 0)
	defer p.Close()
	rt := newRecordTask(ntiles)
	calls := 0
	p.Run(rt, ntiles, 0, func() { calls++ })
	// Worker 0 owns ceil(16/4) = 4 tiles, plus the pre-join prod.
	if calls != 5 {
		t.Fatalf("progress called %d times, want 5", calls)
	}
}

func TestPoolInlineFallbacks(t *testing.T) {
	// nil pool, single-worker pool, single-tile dispatch, and a closed
	// pool all execute inline on the caller with full coverage.
	cases := []struct {
		name string
		pool *Pool
	}{
		{"nil", nil},
		{"single-worker", NewPool(1, 0)},
		{"closed", func() *Pool { p := NewPool(4, 0); p.Close(); return p }()},
	}
	for _, tc := range cases {
		rt := newRecordTask(8)
		tc.pool.Run(rt, 8, 0, nil)
		rt.check(t, 8)
		for i := 0; i < 8; i++ {
			if got := int(rt.owner[i].Load()); got != 0 {
				t.Fatalf("%s: tile %d ran on worker %d, want caller (0)", tc.name, i, got)
			}
		}
	}
	// ntiles <= 1 also stays inline even on a live team.
	p := NewPool(4, 0)
	defer p.Close()
	rt := newRecordTask(1)
	p.Run(rt, 1, 0, nil)
	rt.check(t, 1)
	if got := int(rt.owner[0].Load()); got != 0 {
		t.Fatalf("single tile ran on worker %d, want caller (0)", got)
	}
}

func TestPoolNilAndCloseSemantics(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	if st := nilPool.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool Stats() = %+v, want zero", st)
	}
	if got := nilPool.SyncCost(); got != 0 {
		t.Fatalf("nil pool SyncCost() = %g, want 0", got)
	}
	nilPool.Close() // must not panic

	p := NewPool(3, 2)
	if p.Workers() != 3 || p.Rank() != 2 || p.Closed() {
		t.Fatalf("fresh pool: workers=%d rank=%d closed=%v", p.Workers(), p.Rank(), p.Closed())
	}
	p.Close()
	p.Close() // idempotent
	if !p.Closed() {
		t.Fatal("pool not closed after Close")
	}
}

func TestPoolStatsAccumulate(t *testing.T) {
	obs.EnableMetrics()
	defer func() { obs.DisableAll(); obs.Reset() }()
	obs.Reset()

	p := NewPool(2, 0)
	defer p.Close()
	rt := newRecordTask(8)
	before := p.Stats()
	p.Run(rt, 8, 0, nil)
	p.Run(rt, 8, 1, nil)
	st := p.Stats()
	if st.Dispatches-before.Dispatches != 2 {
		t.Fatalf("dispatches delta = %d, want 2", st.Dispatches-before.Dispatches)
	}
	if st.SyncNs < before.SyncNs {
		t.Fatal("SyncNs went backwards")
	}
	// The same join waits land in the metrics registry.
	if got := obs.Snapshot().Total.PoolSyncNs; got <= 0 || got != st.SyncNs-before.SyncNs {
		t.Errorf("obs pool_sync_ns = %d, want the pool's own %d (> 0)", got, st.SyncNs-before.SyncNs)
	}
}

func TestPoolSyncCostMeasuredAndCached(t *testing.T) {
	p := NewPool(2, 0)
	defer p.Close()
	c1 := p.SyncCost()
	if c1 <= 0 {
		t.Fatalf("SyncCost() = %g, want > 0 for a multi-worker pool", c1)
	}
	if c2 := p.SyncCost(); c2 != c1 {
		t.Fatalf("SyncCost not cached: %g then %g", c1, c2)
	}
	single := NewPool(1, 0)
	if got := single.SyncCost(); got != 0 {
		t.Fatalf("single-worker SyncCost() = %g, want 0", got)
	}
}

func TestKernelPoolRunAllocFree(t *testing.T) {
	// The full engine dispatch path — refill, scratch reuse, pool Run —
	// must also be allocation-free once warmed.
	g := grid.MustNew([]int{64, 32}, []float64{63, 31})
	k, u := buildDiffusion(t, g, 2)
	for i := range u.Buf(0).Data {
		u.Buf(0).Data[i] = float32(i%13) * 0.5
	}
	syms, err := k.BindSyms(map[string]float64{"dt": 0.1, "h_x": 1, "h_y": 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(4, 0)
	defer p.Close()
	opts := &ExecOpts{Workers: 4, TileRows: 8, Pool: p}
	b := fullDomainBox(&u.Function)
	k.Run(0, b, syms, opts) // warm: grows scratch, fills state
	step := 1
	if avg := testing.AllocsPerRun(20, func() {
		k.Run(step%2, b, syms, opts)
		step++
	}); avg != 0 {
		t.Errorf("kernel pool dispatch allocates %.1f objects/run, want 0", avg)
	}
}
