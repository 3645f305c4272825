package propagators

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sync"
	"time"

	"devigo/internal/core"
	"devigo/internal/obs"
	"devigo/internal/opcache"
)

// Shot describes one shot of a multi-shot FWI survey: the per-shot source
// geometry and (optionally) its observed data. Zero fields inherit the
// survey-wide GradientConfig defaults.
type Shot struct {
	// SourceCoords places this shot's source (nil keeps the base config's
	// placement, which defaults to the model centre).
	SourceCoords []float64
	// Wavelet overrides the source signature for this shot.
	Wavelet []float32
	// ObsData is this shot's observed data (NT x nrec); when set the
	// residual d_syn - d_obs drives the adjoint source and the misfit,
	// otherwise the synthetics themselves are back-propagated.
	ObsData [][]float64
}

// ShotsConfig drives a shot-parallel gradient survey: N independent
// serial gradient solves on a bounded number of shot workers, stacked into
// one gradient. Within a shot, Gradient.Workers sizes the worker pool that
// shares the shot's grid.
type ShotsConfig struct {
	// Gradient is the survey-wide base configuration; each Shot overrides
	// its source geometry and observed data.
	Gradient GradientConfig
	// Shots lists the survey's shots (at least one).
	Shots []Shot
	// Workers is the number of shot workers, and so of shots in flight at
	// once; 0 runs one, and a count above len(Shots) is capped at it. The
	// stacked gradient is bit-identical for every worker count.
	Workers int
	// Cache is the operator cache shared by the shot workers: each of the
	// three gradient schedules is lowered once per cache, and every worker
	// compiles its own kernels over it, once. Nil gives the survey a fresh
	// cache of its own.
	Cache *opcache.Cache
}

// ShotResult is one shot's accounting entry in the shot log.
type ShotResult struct {
	// Shot is the shot index.
	Shot int `json:"shot"`
	// Misfit is the shot's data misfit 0.5*sum(residual^2) over all
	// receivers and timesteps (residual = synthetics when the shot has no
	// observed data).
	Misfit float64 `json:"misfit"`
	// GradNorm is the global L2 norm of this shot's own gradient.
	GradNorm float64 `json:"grad_norm"`
	// RelErr is the shot's adjoint dot-product identity gap.
	RelErr float64 `json:"rel_err"`
	// Seconds is the shot's wall time inside its worker. A worker's first
	// shot includes building the worker's model and solver.
	Seconds float64 `json:"seconds"`
}

// ShotsResult carries the stacked outcome of a survey.
type ShotsResult struct {
	// Shots holds the per-shot log in ascending shot order.
	Shots []ShotResult
	// Gradient is the stacked gradient over the full global grid in
	// row-major order (shot gradients summed in ascending shot order).
	Gradient []float32
	// Shape is the global grid shape of Gradient.
	Shape []int
	// GradNorm is the L2 norm of the stacked gradient.
	GradNorm float64
	// Misfit is the total misfit, summed over shots.
	Misfit float64
	// Workers is the effective number of shot workers: the requested count
	// capped at the number of shots.
	Workers int
	// CacheStats snapshots the operator cache after the survey. Misses is
	// the number of unique schedules lowered; each worker looks every
	// schedule up once, so a fresh cache over a survey on W workers sees
	// Hits/(Hits+Misses) == (W-1)/W, whatever the number of shots.
	CacheStats opcache.Stats
}

// shotOutcome is the per-shot payload streamed from a worker to the
// reducer.
type shotOutcome struct {
	grad     []float32
	misfit   float64
	gradNorm float64
	relErr   float64
	seconds  float64
}

// RunShots runs a shot-parallel FWI gradient survey: model names the
// propagator (Build dispatch), cfg the shared grid/velocity configuration
// (its Decomp/Rank must be unset: every shot is a serial solve), and sc
// the survey. Each of the Workers shot workers builds, on its first shot,
// a gradient solver: the model, the forward, adjoint and imaging operators
// and the checkpoint store. It then solves every shot it is handed on that
// solver, zeroing the wavefields, the gradient and the store in between,
// and streams each shot's gradient to the reducer, which stacks in
// ascending shot order — making the result bit-identical to a sequential
// loop over RunGradient for any Workers setting. Lowered schedules are
// shared across workers through the operator cache.
func RunShots(model string, cfg Config, sc ShotsConfig) (*ShotsResult, error) {
	n := len(sc.Shots)
	if n == 0 {
		return nil, fmt.Errorf("propagators: ShotsConfig needs at least one shot")
	}
	if cfg.Decomp != nil || cfg.Rank != 0 {
		return nil, fmt.Errorf("propagators: RunShots solves every shot on the whole grid; leave Config.Decomp/Rank unset")
	}
	cache := sc.Cache
	if cache == nil {
		cache = opcache.New()
	}
	workers, err := shotWorkers(sc.Workers, n)
	if err != nil {
		return nil, err
	}
	// The per-shot compute team, resolved exactly as every worker's
	// operators will resolve it, so a bad request fails here and not inside
	// shot 0.
	computeWorkers, err := core.ResolveWorkers(sc.Gradient.Workers)
	if err != nil {
		return nil, err
	}

	shape := append([]int(nil), cfg.Shape...)
	total := 1
	for _, s := range shape {
		total *= s
	}

	// Guard against oversubscription: shots in flight × per-shot compute
	// workers was silently unbounded. The shot tier honours an explicit
	// request (and results are bit-exact for any worker count at either
	// tier), so the clamp lands on the per-shot compute team: it shrinks
	// until the product fits the host's cores, with the decision logged.
	// computeWorkers stays 0 (operator default) when no clamp is needed.
	if computeWorkers > 1 {
		if clamped := clampWorkers(computeWorkers, workers, goruntime.NumCPU()); clamped != computeWorkers {
			fmt.Fprintf(os.Stderr,
				"devigo: clamping per-shot compute workers %d -> %d (%d shots in flight on %d cores)\n",
				computeWorkers, clamped, workers, goruntime.NumCPU())
			computeWorkers = clamped
		}
	}
	gc := sc.Gradient
	if computeWorkers > 0 {
		gc.Workers = computeWorkers
	}

	// Stacked shots hand their gradient buffers back for later shots to
	// fill; at most n exist, so a send never blocks.
	free := make(chan []float32, n)
	solvers := make([]*gradientSolver, workers)
	defer func() {
		for _, sv := range solvers {
			if sv != nil {
				sv.close()
			}
		}
	}()
	fn := func(worker, shot int) (*shotOutcome, error) {
		t0 := time.Now()
		var res *GradientResult
		err := reportPanic(func() (err error) {
			if solvers[worker] == nil {
				m, err := Build(model, cfg)
				if err != nil {
					return err
				}
				if solvers[worker], err = newGradientSolver(m, nil, gc, cache); err != nil {
					return err
				}
			}
			res, err = solvers[worker].solve(sc.Shots[shot])
			return err
		})
		if err != nil {
			return nil, err
		}
		// Copy the gradient out before the worker's next shot zeroes it.
		out := &shotOutcome{}
		select {
		case out.grad = <-free:
		default:
			out.grad = make([]float32, total)
		}
		off := 0
		domainRows(res.Gradient, 0, func(_ []int, row []float32) {
			off += copy(out.grad[off:], row)
		})
		out.misfit = misfitOf(res.Receivers, gc.withShot(sc.Shots[shot]).ObsData)
		out.gradNorm, out.relErr = res.GradNorm, res.RelErr
		out.seconds = time.Since(t0).Seconds()
		return out, nil
	}

	stack := make([]float32, total)
	shots := make([]ShotResult, 0, n)
	err = inOrder(n, workers, fn, func(shot int, o *shotOutcome) {
		for i, v := range o.grad {
			stack[i] += v
		}
		free <- o.grad
		shots = append(shots, ShotResult{
			Shot: shot, Misfit: o.misfit, GradNorm: o.gradNorm, RelErr: o.relErr, Seconds: o.seconds,
		})
	})
	if err != nil {
		return nil, err
	}

	res := &ShotsResult{Shots: shots, Gradient: stack, Shape: shape, Workers: workers,
		CacheStats: cache.Stats()}
	sum := 0.0
	for _, v := range stack {
		sum += float64(v) * float64(v)
	}
	res.GradNorm = math.Sqrt(sum)
	for _, s := range shots {
		res.Misfit += s.Misfit
	}
	return res, nil
}

// withShot is the configuration of one shot: gc with the shot's non-nil
// source geometry, wavelet and observed data in place of its own.
func (gc GradientConfig) withShot(s Shot) GradientConfig {
	if s.SourceCoords != nil {
		gc.SourceCoords = s.SourceCoords
	}
	if s.Wavelet != nil {
		gc.Wavelet = s.Wavelet
	}
	if s.ObsData != nil {
		gc.ObsData = s.ObsData
	}
	return gc
}

// reportPanic runs fn, turning a panic into an error, so that a shot that
// panics fails its shot and not the process.
func reportPanic(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// inOrder runs shots 0..n-1 on workers workers and hands each result to
// reduce in ascending shot order whatever the completion order. Shots are
// handed out in ascending order: shot w to worker w at the start, so
// every worker with a shot runs one whatever the scheduler does, then the
// next to whichever worker comes free. fn runs one shot on one worker
// (0 <= worker < workers); a worker runs one shot at a time, so fn may
// keep per-worker state. Floating-point accumulation is not associative,
// so the reduction order is what makes a stack bit-identical to a
// sequential loop at every worker count. The worker that completes the
// next shot due reduces it, with every later shot already waiting, so a
// result is reduced as soon as its turn comes; reduce is never called
// concurrently. After a shot fails no further shot is handed out, the
// shots handed out finish, and the error names the smallest failing shot;
// reduce sees nothing from that shot onwards, since a partial stack would
// be silently wrong. inOrder returns once every worker has stopped. Each
// shot records a PhaseShot span and, on success, a CtrShotsDone count on
// rank 0 (the fan-out sits above the rank tier), and the in-flight bound
// is published as the CtrShotWorkers gauge.
func inOrder[T any](n, workers int, fn func(worker, shot int) (T, error), reduce func(shot int, v T)) error {
	obs.Add(0, obs.CtrShotWorkers, int64(workers))
	var (
		mu       sync.Mutex
		next     = min(workers, n) // the next shot to hand out
		done     = make([]bool, n) // shot finished and waiting to be reduced
		results  = make([]T, n)
		reduced  int   // shots below have been reduced
		reducing bool  // a worker is running reduce
		failShot = n   // the smallest failing shot
		failure  error // its error
	)
	// take hands out the next shot, or -1 once none is left or a shot has
	// failed.
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if failShot < n || next == n {
			return -1
		}
		next++
		return next - 1
	}
	// finish records a shot's outcome and, unless another worker already
	// is, reduces every shot whose turn has come, outside the lock.
	finish := func(shot int, v T, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if shot < failShot {
				failShot, failure = shot, fmt.Errorf("propagators: shot %d: %w", shot, err)
			}
			return
		}
		done[shot], results[shot] = true, v
		if reducing {
			return
		}
		reducing = true
		for reduced < failShot && done[reduced] {
			s, r := reduced, results[reduced]
			var zero T
			results[reduced] = zero
			reduced++
			mu.Unlock()
			reduce(s, r)
			mu.Lock()
		}
		reducing = false
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := w
			if w >= n {
				first = -1
			}
			for shot := first; shot >= 0; shot = take() {
				sp := obs.Begin(0, obs.PhaseShot, shot)
				v, err := fn(w, shot)
				sp.End()
				if err == nil {
					obs.Add(0, obs.CtrShotsDone, 1)
				}
				finish(shot, v, err)
			}
		}()
	}
	wg.Wait()
	return failure
}

// shotWorkers resolves ShotsConfig.Workers over a survey of n shots: 0
// means one shot at a time, a negative count is an error naming the field,
// and the count is capped at n.
func shotWorkers(requested, n int) (int, error) {
	if requested < 0 {
		return 0, fmt.Errorf("propagators: invalid ShotsConfig.Workers %d (want 0 or a positive count)", requested)
	}
	return min(max(requested, 1), n), nil
}

// clampWorkers bounds the per-shot compute team so that its product with
// the shots in flight does not oversubscribe the host: when it would, the
// team shrinks to hostCores/shotsInFlight, but never below 1 (one
// over-wide shot is the caller's explicit choice). hostCores < 1 means
// unknown, and changes nothing.
func clampWorkers(computeWorkers, shotsInFlight, hostCores int) int {
	computeWorkers, shotsInFlight = max(computeWorkers, 1), max(shotsInFlight, 1)
	if hostCores < 1 || computeWorkers*shotsInFlight <= hostCores {
		return computeWorkers
	}
	return max(1, hostCores/shotsInFlight)
}

// misfitOf is the least-squares data misfit 0.5*sum(residual^2) with
// residual = synthetics - observed (or the synthetics themselves without
// observed data) — the objective whose gradient the adjoint computes.
func misfitOf(syn [][]float64, obs [][]float64) float64 {
	sum := 0.0
	for t := range syn {
		for r := range syn[t] {
			d := syn[t][r]
			if obs != nil {
				d -= obs[t][r]
			}
			sum += d * d
		}
	}
	return 0.5 * sum
}
