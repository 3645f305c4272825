package main

import (
	"math"
	"time"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/perfmodel"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
	"devigo/internal/sparse"
)

// stepProblem pins every knob of one stepping rep: nothing is left to
// the library's environment-driven defaults.
type stepProblem struct {
	n, so, nbl int // acoustic, n x n grid
	nt, w      int // steps per rep, steps per steady window
	ranks      int
	mode       halo.Mode
	k          int // exchange interval (time tile)
	engine     string
	workers    int
	jitter     [2]int // source offset from the centre, in cells
}

func (p stepProblem) points() int { return p.n * p.n }

// repResult is what one rep leaves behind. Timings are rank 0's clock;
// counters are summed over ranks.
type repResult struct {
	stamps  []time.Time // end of each step
	buildS  float64
	newOpS  float64
	applyS  float64
	norm    float64 // all-reduced L2 norm of the final wavefield
	recSum  float64 // receiver checksum, rank partials added in rank order
	perf    core.Perf
	cfg     core.EffectiveConfig
	comm    core.CommStats
	profile perfmodel.OpProfile
	msgs    int64 // sent by all ranks over the steady steps
	bytes   int64
	pool    runtime.PoolStats // rank 0 delta over the steady steps
}

// windows are the rep's steady window wall times.
func (r *repResult) windows(w int) []float64 { return cutWindows(r.stamps, w) }

// stepModel is one rank's model, operator and sparse machinery, kept
// together so the per-layer probes can reuse a rep's exact setup.
type stepModel struct {
	m       *propagators.Model
	op      *core.Operator
	u       *field.Function
	src     *sparse.SparseFunction
	rec     *sparse.SparseFunction
	wavelet []float32
	scale   float32
	dt      float64
	buildS  float64
	newOpS  float64
}

// newStepModel builds the acoustic model and its operator for one rank
// (c == nil: serial) with the problem's pinned configuration.
func newStepModel(p stepProblem, c *mpi.Comm, tr *tracer, parent, rep int) (*stepModel, error) {
	cfg := propagators.Config{Shape: []int{p.n, p.n}, SpaceOrder: p.so, NBL: p.nbl, Velocity: 1.5}
	var ctx *core.Context
	if c != nil {
		var err error
		if ctx, err = rankContext(c, p.n, p.mode); err != nil {
			return nil, err
		}
		cfg.Decomp, cfg.Rank = ctx.Decomp, c.Rank()
	}
	sm := &stepModel{}
	sp := tr.begin("propagators.Build", parent, rep)
	t0 := time.Now()
	m, err := propagators.Build("acoustic", cfg)
	sm.buildS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.NewOperator", parent, rep)
	t0 = time.Now()
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{
		Name: m.Name, Engine: p.engine, Workers: p.workers, TimeTile: p.k,
	})
	sm.newOpS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sm.m, sm.op, sm.u, sm.dt = m, op, m.Fields["u"], m.CriticalDt

	h := m.Grid.Spacing(0)
	srcAt := []float64{
		(float64(p.n-1)/2 + float64(p.jitter[0])) * h,
		(float64(p.n-1)/2 + float64(p.jitter[1])) * m.Grid.Spacing(1),
	}
	if sm.src, err = sparse.New("src", m.Grid, [][]float64{srcAt}); err != nil {
		return nil, err
	}
	if sm.rec, err = sparse.New("rec", m.Grid, receiverLine(p.n, h)); err != nil {
		return nil, err
	}
	f0 := 0.05 / sm.dt // ~8 points per wavelength, as propagators.Run picks
	sm.wavelet = sparse.RickerWavelet(f0, 1.5/f0, sm.dt, p.nt)
	mval := m.Fields["m"].AtDomain(0, 0, 0)
	sm.scale = float32(sm.dt * sm.dt / float64(mval))
	return sm, nil
}

// receiverLine places 8 receivers on a line near the grid centre, off
// the grid nodes and on both sides of a 2-rank split, close enough
// (within 18 cells) that the wave reaches them in a 100-step rep — the
// library's default line sits a quarter-domain away and would record
// exact zeros on the 2048² grid.
func receiverLine(n int, h float64) [][]float64 {
	centre := float64(n-1) / 2
	span := float64(min(16, n/4))
	out := make([][]float64, 8)
	for i := range out {
		out[i] = []float64{(centre + (float64(i)-3.5)*span/3.5) * h, (centre + span/2 + 0.5) * h}
	}
	return out
}

// domainSumSq is the sum of squares of a field's owned points at time
// buffer t, in float64.
func domainSumSq(f *field.Function, t int) float64 {
	dom := f.DomainRegion()
	tmp := make([]float32, dom.Size())
	f.Buf(t).Pack(dom, tmp)
	sum := 0.0
	for _, v := range tmp {
		sum += float64(v) * float64(v)
	}
	return sum
}

// runRep is one rep of the protocol: Build, NewOperator, one Apply over
// nt steps from zero fields with the Ricker source. The PostStep hook
// injects the source, samples the receivers and (on rank 0) stores the
// step's end time; windows are cut from those stamps afterwards.
func runRep(p stepProblem, tr *tracer, rep int) (*repResult, error) {
	res := &repResult{stamps: make([]time.Time, p.nt)}
	recPart := make([]float64, p.ranks)
	sent := make([][2]mpi.Stats, p.ranks)
	steady := steadySteps(p.nt, p.w)
	root := tr.begin("rep", -1, rep)
	defer tr.end(root)

	body := func(c *mpi.Comm) error {
		rank := 0
		if c != nil {
			rank = c.Rank()
		}
		parent := -1
		var rtr *tracer
		if rank == 0 {
			rtr, parent = tr, root
		}
		sm, err := newStepModel(p, c, rtr, parent, rep)
		if err != nil {
			return err
		}
		defer sm.op.Close()
		op, u := sm.op, sm.u
		val := make([]float32, 1)
		depth := op.InjectDepth()
		var poolAt [2]runtime.PoolStats
		mark := func(i int) {
			if c != nil {
				sent[rank][i] = c.Transport().Stats()
			}
			if rank == 0 {
				poolAt[i] = op.Pool().Stats()
			}
		}
		postStep := func(t int) {
			val[0] = sm.wavelet[t] * sm.scale
			_ = sm.src.InjectDeep(u, t+1, val, depth)
			for i, v := range sm.rec.Interpolate(u, t+1, nil) {
				recPart[rank] += v * float64(i+1)
			}
			if rank == 0 {
				res.stamps[t] = time.Now()
			}
			if steady > 0 && t == p.w-1 {
				mark(0)
			}
			if steady > 0 && t == p.w+steady-1 {
				mark(1)
			}
		}
		sp := rtr.begin("core.Apply", parent, rep)
		t0 := time.Now()
		err = op.Apply(&core.ApplyOpts{
			TimeM: 0, TimeN: p.nt - 1,
			Syms:     map[string]float64{"dt": sm.dt},
			PostStep: postStep,
			Autotune: core.AutotuneOff,
		})
		applyS := time.Since(t0).Seconds()
		rtr.end(sp)
		if err != nil {
			return err
		}
		sum := domainSumSq(u, p.nt)
		if c != nil {
			sum = c.AllreduceScalar(sum, mpi.OpSum)
		}
		if rank == 0 {
			res.applyS = applyS
			res.buildS, res.newOpS = sm.buildS, sm.newOpS
			res.norm = math.Sqrt(sum)
			res.perf, res.cfg, res.comm = op.Report(), op.Config(), op.CommStats()
			res.profile = op.Profile()
			res.pool = runtime.PoolStats{
				Dispatches: poolAt[1].Dispatches - poolAt[0].Dispatches,
				SyncNs:     poolAt[1].SyncNs - poolAt[0].SyncNs,
				IdleNs:     poolAt[1].IdleNs - poolAt[0].IdleNs,
				Steals:     poolAt[1].Steals - poolAt[0].Steals,
			}
		}
		return nil
	}

	if err := withWorld(p.ranks, body); err != nil {
		return nil, err
	}
	for r := 0; r < p.ranks; r++ {
		res.recSum += recPart[r]
		res.msgs += int64(sent[r][1].MsgsSent - sent[r][0].MsgsSent)
		res.bytes += sent[r][1].BytesSent - sent[r][0].BytesSent
	}
	return res, nil
}
