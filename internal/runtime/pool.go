package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"devigo/internal/obs"
)

// Task is one dispatched kernel invocation: the tile driver hands the pool
// an object that can execute any tile of the current sweep. RunTile(w, tile)
// executes tile `tile` using worker w's private scratch; tiles partition
// the outer dimension into disjoint row bands, so any assignment of tiles
// to workers produces bit-identical results.
type Task interface {
	RunTile(w, tile int)
}

// Pool is a persistent per-rank worker team — the shared-memory "X" tier
// of the MPI+X hybrid. Workers spawn once (NewPool) and park on a condvar
// between dispatches; Run publishes a Task, bumps the epoch, participates
// as worker 0, and joins. The dispatch path performs no goroutine,
// channel or closure allocation (certified by TestPoolDispatchAllocs), so
// a steady-state timestep costs only the condvar wake/join handshake.
//
// The partition is a deterministic static block-cyclic assignment: worker
// w owns tiles w, w+W, w+2W, ... — the same row bands every timestep, so
// each worker's working set stays resident in its core's private caches
// across steps. It is the only schedule: no worker ever runs another's
// tile.
//
// Run must be called from one goroutine at a time (the operator's step
// loop is sequential); the caller doubles as worker 0 and as the
// progress engine for full-mode overlap, prodding the progress hook
// between its own tiles exactly like the sacrificed OpenMP thread of the
// paper's MPI+X full mode.
type Pool struct {
	workers int
	rank    int

	mu   sync.Mutex
	wake *sync.Cond // parked workers wait here for an epoch bump
	join *sync.Cond // the dispatching caller waits here for the team

	epoch   uint64
	running int
	closed  atomic.Bool

	// Dispatch parameters, published under mu before the epoch bump.
	task   Task
	ntiles int
	step   int

	// finish[w] is worker w's completion time of the current dispatch in
	// nanoseconds since base (written under mu at hand-in).
	finish []int64
	base   time.Time

	syncNs     atomic.Int64
	idleNs     atomic.Int64
	dispatches atomic.Int64

	syncOnce sync.Once
	syncCost float64
}

// PoolStats is a snapshot of the pool's lifetime dispatch counters.
type PoolStats struct {
	// Dispatches is the number of Run calls executed by the team.
	Dispatches int64
	// SyncNs is the caller's cumulative join-barrier wait.
	SyncNs int64
	// IdleNs is the cumulative spawned-worker idle time inside dispatches
	// (sum over workers of join time minus that worker's finish time).
	IdleNs int64
	// Steals is always 0: every tile runs on its static owner. It stays
	// until the benchmark drops its runtime.steals metric (ROADMAP item 2).
	Steals int64
}

// NewPool spawns a persistent team of `workers` workers for one rank.
// The calling goroutine is worker 0; workers-1 goroutines are spawned and
// park immediately. A pool of one worker (or fewer) spawns nothing and
// Run executes inline.
func NewPool(workers, rank int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		rank:    rank,
		finish:  make([]int64, workers),
		base:    time.Now(),
	}
	p.wake = sync.NewCond(&p.mu)
	p.join = sync.NewCond(&p.mu)
	for w := 1; w < workers; w++ {
		go p.park(w)
	}
	return p
}

// Workers reports the team size (including the caller as worker 0).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Rank reports the MPI rank the pool records its obs counters under.
func (p *Pool) Rank() int { return p.rank }

// Closed reports whether Close has run; a closed pool executes Run inline.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Close releases the spawned workers. Idempotent; Run on a closed pool
// falls back to inline execution, and the owning operator recreates the
// pool on its next Apply.
func (p *Pool) Close() {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
}

// park is the spawned workers' lifetime loop: wait for an epoch bump,
// run the published task's block-cyclic stripe, hand back in, repeat.
func (p *Pool) park(w int) {
	last := uint64(0)
	p.mu.Lock()
	for {
		for p.epoch == last && !p.closed.Load() {
			p.wake.Wait()
		}
		if p.closed.Load() {
			p.mu.Unlock()
			return
		}
		last = p.epoch
		task, ntiles, step := p.task, p.ntiles, p.step
		p.mu.Unlock()

		sp := obs.BeginStream(p.rank, obs.WorkerStream(w), obs.PhaseWorker, step)
		p.work(task, w, ntiles, nil)
		sp.End()

		p.mu.Lock()
		p.finish[w] = int64(time.Since(p.base))
		p.running--
		if p.running == 0 {
			p.join.Signal()
		}
	}
}

// work runs worker w's static stripe: tiles w, w+W, w+2W, ...
func (p *Pool) work(task Task, w, ntiles int, progress func()) {
	for tile := w; tile < ntiles; tile += p.workers {
		task.RunTile(w, tile)
		if progress != nil {
			progress()
		}
	}
}

// Run executes tiles 0..ntiles-1 of the task across the team and returns
// when all have completed. step labels the dispatch's trace spans;
// progress, when non-nil, is prodded by worker 0 between its tiles and
// once before the join (the full-overlap progress engine). Allocation-free
// in steady state.
func (p *Pool) Run(task Task, ntiles, step int, progress func()) {
	if p == nil || p.workers <= 1 || ntiles <= 1 || p.closed.Load() {
		for tile := 0; tile < ntiles; tile++ {
			task.RunTile(0, tile)
			if progress != nil {
				progress()
			}
		}
		return
	}
	p.mu.Lock()
	p.task, p.ntiles, p.step = task, ntiles, step
	p.running = p.workers - 1
	p.epoch++
	p.wake.Broadcast()
	p.mu.Unlock()

	sp := obs.BeginStream(p.rank, obs.WorkerStream(0), obs.PhaseWorker, step)
	p.work(task, 0, ntiles, progress)
	sp.End()
	if progress != nil {
		progress()
	}

	t0 := time.Now()
	p.mu.Lock()
	for p.running > 0 {
		p.join.Wait()
	}
	joined := int64(time.Since(p.base))
	idle := int64(0)
	for w := 1; w < p.workers; w++ {
		if d := joined - p.finish[w]; d > 0 {
			idle += d
		}
	}
	p.mu.Unlock()
	syncNs := int64(time.Since(t0))

	p.syncNs.Add(syncNs)
	p.idleNs.Add(idle)
	p.dispatches.Add(1)
	if obs.Active() {
		obs.Add(p.rank, obs.CtrPoolSyncNs, syncNs)
		obs.Add(p.rank, obs.CtrPoolIdleNs, idle)
	}
}

// Stats snapshots the lifetime dispatch counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Dispatches: p.dispatches.Load(),
		SyncNs:     p.syncNs.Load(),
		IdleNs:     p.idleNs.Load(),
	}
}

// noopTask is the empty dispatch SyncCost times.
type noopTask struct{}

func (noopTask) RunTile(int, int) {}

// syncCostRounds is how many empty dispatches feed the SyncCost estimate.
const syncCostRounds = 64

// SyncCost measures the pool's per-dispatch fork-join overhead in seconds
// — the wake-broadcast plus join-barrier handshake with no work in
// between — by timing empty dispatches. The first call measures (a few
// hundred microseconds); later calls return the cached figure. The
// autotuner injects it as perfmodel.Host.PoolSync, replacing the default
// with this machine's measured sync term.
func (p *Pool) SyncCost() float64 {
	if p == nil || p.workers <= 1 {
		return 0
	}
	p.syncOnce.Do(func() {
		var tk noopTask
		p.Run(&tk, p.workers, 0, nil) // warm the parked team
		t0 := time.Now()
		for i := 0; i < syncCostRounds; i++ {
			p.Run(&tk, p.workers, 0, nil)
		}
		p.syncCost = time.Since(t0).Seconds() / syncCostRounds
	})
	return p.syncCost
}
