package core

import (
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"time"

	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/perfmodel"
	"devigo/internal/runtime"
)

// Autotune policies: the compiler-picks-the-configuration loop of the
// source paper. "search" ranks the candidates with the analytic cost
// model and times its shortlist on the first few real timesteps of the
// run (every candidate is bit-exact, so tuning in place never perturbs
// results); with too few steps for a trial it adopts the model's top
// choice.
const (
	// AutotuneOff disables self-configuration (the default).
	AutotuneOff = "off"
	// AutotuneSearch measures the model's shortlist empirically and keeps
	// the winner.
	AutotuneSearch = "search"
)

// AutotuneEnvVar overrides the policy when ApplyOpts.Autotune is unset —
// the zero-user-code-changes switch: DEVIGO_AUTOTUNE=search|off.
const AutotuneEnvVar = "DEVIGO_AUTOTUNE"

// tuneStepsPerTrial is how many real timesteps the search policy charges
// per candidate, rounded up to whole tiles for time-tiled candidates.
const tuneStepsPerTrial = 3

// resolveAutotune picks the policy: explicit ApplyOpts.Autotune wins, then
// the DEVIGO_AUTOTUNE environment variable, then off. A value outside the
// vocabulary is a configuration error naming the bad value, where it came
// from, and what is accepted — matching the halo package's ParseMode
// style.
func resolveAutotune(requested string) (string, error) {
	p := strings.ToLower(strings.TrimSpace(requested))
	source := "ApplyOpts.Autotune"
	if p == "" {
		p = strings.ToLower(strings.TrimSpace(os.Getenv(AutotuneEnvVar)))
		source = "$" + AutotuneEnvVar
	}
	switch p {
	case "":
		return AutotuneOff, nil
	case AutotuneOff, AutotuneSearch:
		return p, nil
	}
	return "", fmt.Errorf("core: unknown autotune policy %q in %s (valid: %s, %s)",
		p, source, AutotuneOff, AutotuneSearch)
}

// Profile derives the autotuner's view of the operator: per-point
// instruction counts from the compiled kernels, exchanged streams from
// the halo schedule, and the slowest rank's box from the decomposition.
// Every rank derives the identical profile without communication, so
// planning is deterministic across a distributed run.
func (op *Operator) Profile() perfmodel.OpProfile {
	shape := append([]int(nil), op.Grid.Shape...)
	ranks := 1
	if op.ctx != nil {
		shape = op.ctx.Decomp.MaxLocalShape()
		ranks = op.ctx.Comm.Size()
	}
	instrs := 0
	for _, k := range op.kernels {
		instrs += k.InstrsPerPoint()
	}
	// HaloWidth is the k=1 baseline exchange width (the allocated width):
	// Predict charges deep intervals TileStride per extra substep on top of
	// it, so reporting the active plan's deep depth here would
	// double-count and overcharge the k=1 candidates.
	width := 0
	for _, sw := range append([]sweep{op.prog.preamble}, op.prog.sweeps...) {
		for _, h := range sw.reqs {
			width = max(width, slices.Max(op.Fields[h.Field].BaseHalo))
		}
	}
	// Every step that exchanges before it sweeps is an exchange point of
	// its own at k = 1.
	exchanges := 0
	for _, st := range op.Schedule.Steps {
		if len(st.Halos) > 0 {
			exchanges++
		}
	}
	stride, streams := op.tileProfile()
	// The k axis opens only once an interval > 1 was provisioned at
	// construction, and plans within the ghost storage allocated then.
	maxTile := 1
	if op.tileProvisioned {
		if tp := op.tilePlan(MaxTileCandidate, true); tp != nil {
			maxTile = tp.K
		}
	}
	p := perfmodel.OpProfile{
		LocalShape:      shape,
		InstrsPerPoint:  instrs,
		StreamsPerPoint: op.StreamCount(),
		HaloStreams:     op.HaloStreamCount(),
		HaloExchanges:   exchanges,
		HaloWidth:       width,
		Ranks:           ranks,
		MaxWorkers:      goruntime.GOMAXPROCS(0),
		Mode:            op.mode,
		TimeTile:        op.TimeTile(),
		MaxTimeTile:     maxTile,
		TileStride:      stride,
		TileStreams:     streams,
		TileRows:        runtime.TileRows,
	}
	if op.forcedWorkers {
		p.ForcedWorkers = op.execOpts.Workers
	}
	return p
}

// adopt applies a planned configuration to the operator's runtime knobs,
// reconfiguring the halo pattern and/or exchange interval when the choice
// differs from the current one.
func (op *Operator) adopt(cfg perfmodel.ExecConfig) error {
	if cfg.Workers > 0 {
		op.execOpts.Workers = cfg.Workers
	}
	// Resize the persistent team to the adopted worker count before the
	// next dispatch.
	op.ensurePool()
	if op.ctx == nil {
		return nil
	}
	return op.reconfigure(cfg.Mode, max(cfg.TimeTile, 1))
}

// measurePoolSync replaces the host model's order-of-magnitude sync cost
// with the measured dispatch cost (publish + wake + join) of a persistent
// worker pool on this machine, so the workers axis is ranked against real
// sync overhead. The operator's own pool is probed when one is live;
// otherwise a transient team of the planning width is timed and released.
// The measurement is rank-local, so a distributed run adopts the slowest
// rank's figure (allreduced max): every rank must feed Plan/Tune the same
// host model or they build different shortlists and then reduce the trial
// times of different candidates.
func (op *Operator) measurePoolSync(h *perfmodel.Host, maxWorkers int) {
	if maxWorkers > 1 {
		p := op.pool
		if p == nil || p.Workers() <= 1 {
			p = runtime.NewPool(maxWorkers, op.ctx.rank())
			defer p.Close()
		}
		h.PoolSync = p.SyncCost()
	}
	if op.ctx != nil {
		h.PoolSync = op.ctx.Comm.AllreduceScalar(h.PoolSync, mpi.OpMax)
	}
}

// tileProfile derives the exchange-interval figures of the profile: the
// per-timestep shell stride (max over dimensions) and the tile-start
// stream count, from a k=2 probe plan (both are interval-independent).
func (op *Operator) tileProfile() (stride, streams int) {
	if op.ctx == nil {
		return 0, 0
	}
	p, _ := ir.PlanTimeTile(op.Schedule, 2, op.isTimeField, op.hasScratch)
	if p == nil {
		return 0, 0
	}
	for _, s := range p.Stride {
		if s > stride {
			stride = s
		}
	}
	return stride, len(p.Halos)
}

// autotune self-configures the operator at the head of an Apply through
// perfmodel.Tune, consuming timesteps of the live run through the step
// callback (advancing *next/*remaining): it times tuneStepsPerTrial steps
// per shortlisted candidate, and the slowest rank's time decides
// (allreduced max), so all ranks adopt the same winner. When too few
// steps remain the search settles early on the best measurement so far,
// or on the model's top choice if nothing was measured.
func (op *Operator) autotune(step func(int), next *int, remaining *int, dir int) error {
	prof := op.Profile()
	host := perfmodel.DefaultHost()
	op.measurePoolSync(&host, prof.MaxWorkers)
	rank := op.ctx.rank()
	// One untimed warmup step before the first trial: the very first
	// step pays first-touch and cache-warming costs that would otherwise
	// bias the search against whichever candidate happens to go first.
	if *remaining > tuneStepsPerTrial {
		sp := obs.Begin(rank, obs.PhaseWarmup, *next)
		step(*next)
		*next += dir
		*remaining--
		sp.End()
		obs.Add(rank, obs.CtrWarmupSteps, 1)
	}
	measure := func(cfg perfmodel.ExecConfig) (float64, error) {
		// Every trial times a whole window and reports the per-step
		// average, with the window covering at least one full tile for
		// time-tiled candidates: tiled cost is lumpy (the deep exchange
		// and the widest shell land on the first substep), so a per-step
		// minimum would flatter tiling by timing only the cheap tail
		// substeps — and mixing a minimum for some candidates with an
		// average for others would bias the comparison the opposite way.
		steps := tuneStepsPerTrial
		if k := cfg.TimeTile; k > 1 {
			// Round up to whole tiles: a window that cuts a tile short
			// would charge the candidate for more tile-head exchanges per
			// step than its steady state (e.g. 2 exchanges in 3 steps for
			// k=2 instead of 1 in 2).
			steps = (steps + k - 1) / k * k
		}
		if *remaining < steps {
			return 0, perfmodel.ErrTuneBudget
		}
		if err := op.adopt(cfg); err != nil {
			return 0, err
		}
		// Align the window to a tile head regardless of where the
		// previous trial stopped.
		op.tilePos = 0
		sp := obs.Begin(rank, obs.PhaseAutotuneTrial, *next)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			step(*next)
			*next += dir
			*remaining--
		}
		avg := time.Since(t0).Seconds() / float64(steps)
		sp.End()
		obs.Add(rank, obs.CtrTrialSteps, int64(steps))
		if op.ctx != nil {
			avg = op.ctx.Comm.AllreduceScalar(avg, mpi.OpMax)
		}
		return avg, nil
	}
	cfg, trialLog, err := perfmodel.Tune(host, prof, measure)
	if err != nil {
		return err
	}
	if err := op.adopt(cfg); err != nil {
		return err
	}
	op.tuned = true
	// Every measured trial is logged, from which the snapshot derives the
	// autotuner's regret (chosen vs empirically best). Every rank adopted
	// the same configuration, so rank 0 alone logs it.
	if rank != 0 {
		return nil
	}
	for _, tr := range trialLog {
		obs.RecordDecision(obs.Decision{
			Config:       tr.Config.String(),
			PredictedSec: host.Predict(prof, tr.Config),
			MeasuredSec:  tr.Seconds,
			Chosen:       tr.Config.String() == cfg.String(),
		})
	}
	return nil
}

// EffectiveConfig is the configuration an operator actually runs with —
// chosen by the autotuner or forced through Options — exported so
// benchmarks can record their own provenance.
type EffectiveConfig struct {
	// Engine is the execution engine ("bytecode", "interpreter" or
	// "native").
	Engine string `json:"engine"`
	// Mode is the halo-exchange pattern ("none" when serial).
	Mode string `json:"mode"`
	// Workers is the effective worker-pool size (1 = sequential).
	Workers int `json:"workers"`
	// TileRows is the outer-dimension tile height (runtime.TileRows).
	TileRows int `json:"tile_rows"`
	// TimeTile is the halo-exchange interval (1 = exchange every step).
	TimeTile int `json:"time_tile"`
	// Autotune is "search" when the autotuner configured the operator,
	// "off" when the configuration was forced or defaulted.
	Autotune string `json:"autotune"`
}

// Config reports the operator's effective execution configuration.
func (op *Operator) Config() EffectiveConfig {
	w := op.execOpts.Workers
	if w < 1 {
		w = 1
	}
	pol := AutotuneOff
	if op.tuned {
		pol = AutotuneSearch
	}
	return EffectiveConfig{
		Engine:   op.perf.Engine,
		Mode:     op.mode.String(),
		Workers:  w,
		TileRows: op.execOpts.TileRows,
		TimeTile: op.TimeTile(),
		Autotune: pol,
	}
}
