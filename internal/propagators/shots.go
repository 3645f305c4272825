package propagators

import (
	"cmp"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
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
// RunGradient solves, a bounded number in flight at once, stacked into one
// gradient.
type ShotsConfig struct {
	// Gradient is the survey-wide base configuration; each Shot overrides
	// its source geometry and observed data.
	Gradient GradientConfig
	// Shots lists the survey's shots (at least one).
	Shots []Shot
	// Workers is the number of shots in flight at once; 0 runs one at a
	// time, and a count above len(Shots) is capped at it. The stacked
	// gradient is bit-identical for every worker count.
	Workers int
	// Ranks is the MPI world size per shot: each shot solves in its own
	// in-process world of this many ranks. <= 1 is a world of one: the
	// serial solve, no decomposition.
	Ranks int
	// Mode is the halo-exchange pattern of the per-shot worlds ("basic",
	// "diag", "full"; "" defaults to basic). A world of one exchanges
	// nothing, whatever the mode.
	Mode string
	// Cache is the operator cache shared by every shot: each of the three
	// gradient schedules is lowered once per cache, and every shot
	// compiles its own kernels over it. Nil gives the survey a fresh cache
	// of its own.
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
	// Seconds is the shot's wall time inside its worker.
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
	// Workers is the effective number of shots in flight: the requested
	// count capped at the number of shots.
	Workers int
	// CacheStats snapshots the operator cache after the survey. Misses is
	// the number of unique schedules lowered; a fresh cache over a survey
	// of N shots sees Hits/(Hits+Misses) == (N-1)/N.
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
// (its Decomp/Rank must be unset — OnRank owns the per-world
// decomposition), and sc the survey. Each shot builds a fresh Model,
// solves a checkpointed forward+adjoint gradient in its own in-process
// world, and streams its gradient to the reducer, which stacks in
// ascending shot order — making the result bit-identical to a sequential
// loop over RunGradient for any Workers setting. Lowered schedules are
// shared across shots through the operator cache.
func RunShots(model string, cfg Config, sc ShotsConfig) (*ShotsResult, error) {
	n := len(sc.Shots)
	if n == 0 {
		return nil, fmt.Errorf("propagators: ShotsConfig needs at least one shot")
	}
	cache := sc.Cache
	if cache == nil {
		cache = opcache.New()
	}
	workers, err := shotWorkers(sc.Workers, n)
	if err != nil {
		return nil, err
	}
	// The per-rank compute team, resolved exactly as every shot's operators
	// will resolve it, so a bad request fails here and not inside shot 0.
	computeWorkers, err := core.ResolveWorkers(sc.Gradient.Workers)
	if err != nil {
		return nil, err
	}
	ranks := max(sc.Ranks, 1)
	mode, err := halo.ParseMode(cmp.Or(sc.Mode, "basic"))
	if err != nil {
		return nil, err
	}

	shape := append([]int(nil), cfg.Shape...)
	total := 1
	for _, s := range shape {
		total *= s
	}

	// Guard against oversubscription: shots in flight × ranks per shot ×
	// per-rank compute workers was silently unbounded. The shot and rank
	// tiers honour explicit requests (and results are bit-exact for any
	// worker count at every tier), so the clamp lands on the per-rank
	// compute team: it shrinks until the product fits the host's cores,
	// with the decision logged. computeWorkers stays 0 (operator default)
	// when no clamp is needed.
	if computeWorkers > 1 {
		if clamped := clampWorkers(computeWorkers, workers*ranks, goruntime.NumCPU()); clamped != computeWorkers {
			fmt.Fprintf(os.Stderr,
				"devigo: clamping per-rank compute workers %d -> %d (%d shots in flight x %d ranks on %d cores)\n",
				computeWorkers, clamped, workers, ranks, goruntime.NumCPU())
			computeWorkers = clamped
		}
	}

	fn := func(shot int) (*shotOutcome, error) {
		t0 := time.Now()
		gc := sc.Gradient
		if computeWorkers > 0 {
			gc.Workers = computeWorkers
		}
		s := sc.Shots[shot]
		if s.SourceCoords != nil {
			gc.SourceCoords = s.SourceCoords
		}
		if s.Wavelet != nil {
			gc.Wavelet = s.Wavelet
		}
		if s.ObsData != nil {
			gc.ObsData = s.ObsData
		}
		out := &shotOutcome{grad: make([]float32, total)}
		// One world per shot; a world of one is the serial solve. A rank
		// that fails fails its world, so the shot returns that rank's
		// error instead of leaving its peers in a receive.
		err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, model, cfg, mode, nil)
			if err != nil {
				return err
			}
			res, err := runGradient(m, ctx, gc, cache)
			if err != nil {
				return err
			}
			// Ranks own disjoint boxes of the global gradient, so the
			// concurrent scatters never touch the same element.
			scatterOwned(out.grad, shape, res.Gradient, 0)
			if c.Rank() == 0 {
				out.misfit = misfitOf(res.Receivers, gc.ObsData)
				out.gradNorm, out.relErr = res.GradNorm, res.RelErr
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.seconds = time.Since(t0).Seconds()
		return out, nil
	}

	stack := make([]float32, total)
	shots := make([]ShotResult, 0, n)
	err = inOrder(n, workers, fn, func(shot int, o *shotOutcome) {
		for i, v := range o.grad {
			stack[i] += v
		}
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

// inOrder runs fn on shots 0..n-1, starting them in ascending order with
// at most workers in flight, and hands each result to reduce in ascending
// shot order whatever the completion order. Floating-point accumulation
// is not associative, so this order is what makes a stack bit-identical to
// a sequential loop at every worker count; reduce is never called
// concurrently. After a shot fails no further shot starts, the shots in
// flight finish, and the error names the smallest failing shot; reduce
// sees nothing from that shot onwards, since a partial stack would be
// silently wrong. Each shot records a PhaseShot span and, on success, a
// CtrShotsDone count on rank 0 (the fan-out sits above the rank tier), and
// the in-flight bound is published as the CtrShotWorkers gauge.
func inOrder[T any](n, workers int, fn func(shot int) (T, error), reduce func(shot int, v T)) error {
	obs.Add(0, obs.CtrShotWorkers, int64(workers))
	type result struct {
		v   T
		err error
	}
	// One buffered channel per shot: a shot's result waits there for its
	// turn, and a shot never started has its channel closed.
	done := make([]chan result, n)
	for i := range done {
		done[i] = make(chan result, 1)
	}
	slots := make(chan struct{}, workers)
	var failed atomic.Bool
	go func() {
		for shot := range n {
			slots <- struct{}{}
			if failed.Load() {
				for _, c := range done[shot:] {
					close(c)
				}
				return
			}
			go func() {
				sp := obs.Begin(0, obs.PhaseShot, shot)
				v, err := fn(shot)
				sp.End()
				if err != nil {
					failed.Store(true)
				} else {
					obs.Add(0, obs.CtrShotsDone, 1)
				}
				<-slots
				done[shot] <- result{v, err}
			}()
		}
	}()
	// Every shot below a started one has started, so the first error met
	// in ascending order is the smallest failing shot. After it the loop
	// only drains, waiting out the shots still in flight.
	var first error
	for shot, c := range done {
		r, started := <-c
		switch {
		case first != nil || !started:
		case r.err != nil:
			first = fmt.Errorf("propagators: shot %d: %w", shot, r.err)
		default:
			reduce(shot, r.v)
		}
	}
	return first
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

// clampWorkers bounds the per-rank compute team so that the product of the
// concurrency tiers (shots in flight × ranks per shot = lanesPerShot,
// times the team) does not oversubscribe the host: when it would, the team
// shrinks to hostCores/lanesPerShot, but never below 1 (one over-wide shot
// is the caller's explicit choice). hostCores < 1 means unknown, and
// changes nothing.
func clampWorkers(computeWorkers, lanesPerShot, hostCores int) int {
	computeWorkers, lanesPerShot = max(computeWorkers, 1), max(lanesPerShot, 1)
	if hostCores < 1 || computeWorkers*lanesPerShot <= hostCores {
		return computeWorkers
	}
	return max(1, hostCores/lanesPerShot)
}

// scatterOwned copies a field's owned DOMAIN at time buffer t into the
// dense row-major global array at the field's origin. Under a
// decomposition every rank owns a disjoint box, so concurrent scatters
// from the ranks of one world assemble the global array without overlap.
func scatterOwned(dst []float32, gshape []int, f *field.Function, t int) {
	dom := f.DomainRegion()
	tmp := make([]float32, dom.Size())
	f.Buf(t).Pack(dom, tmp)
	grid.BoxRows(gshape, f.Origin, f.LocalShape, func(goff, loff, rowLen int) {
		copy(dst[goff:goff+rowLen], tmp[loff:loff+rowLen])
	})
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
