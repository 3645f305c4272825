package obs

import (
	"encoding/json"
	"os"
	"sort"
)

// Decision is one autotuner verdict: a candidate configuration with its
// model-predicted cost and its measured trial cost. The decision log is
// what the regret report is computed from.
type Decision struct {
	// Rank is the recording rank (decisions are collective, so core
	// records them on rank 0 only).
	Rank int `json:"rank"`
	// Config is the candidate's ExecConfig string ("mode/wN/tM[/kK]").
	Config string `json:"config"`
	// PredictedSec is the performance model's per-step cost prediction.
	PredictedSec float64 `json:"predicted_sec"`
	// MeasuredSec is the measured per-step trial cost.
	MeasuredSec float64 `json:"measured_sec,omitempty"`
	// Chosen marks the configuration the operator adopted.
	Chosen bool `json:"chosen"`
}

// RecordDecision appends one autotuner decision to the log (no-op when
// recording is off).
func RecordDecision(d Decision) {
	if mode.Load() == modeOff {
		return
	}
	decMu.Lock()
	decisions = append(decisions, d)
	decMu.Unlock()
}

// RankMetrics is one rank's counter snapshot (or, for Metrics.Total, the
// sum over ranks).
type RankMetrics struct {
	// Rank identifies the rank (-1 in the all-rank total).
	Rank int `json:"rank"`
	// StepMsgs / StepBytes count steady-state halo messages and payload
	// bytes (per-step and tile-head exchanges).
	StepMsgs  int64 `json:"step_msgs"`
	StepBytes int64 `json:"step_bytes"`
	// PreambleMsgs / PreambleBytes count once-per-run exchanges (schedule
	// preamble, hoisted parameters, retarget refreshes).
	PreambleMsgs  int64 `json:"preamble_msgs"`
	PreambleBytes int64 `json:"preamble_bytes"`
	// RecvWaitNs is the time spent blocked in receive waits.
	RecvWaitNs int64 `json:"recv_wait_ns"`
	// ShellPoints counts redundantly recomputed time-tile shell points.
	ShellPoints int64 `json:"shell_points"`
	// WarmupSteps / TrialSteps / SteadySteps split the executed timesteps
	// into autotune warmup, autotune search trials, and steady state.
	WarmupSteps int64 `json:"warmup_steps"`
	TrialSteps  int64 `json:"trial_steps"`
	SteadySteps int64 `json:"steady_steps"`
	// CkptSaves / CkptRestores count checkpoint store operations.
	CkptSaves    int64 `json:"ckpt_saves"`
	CkptRestores int64 `json:"ckpt_restores"`
	// InstrsPerPoint is the compiled operator's per-point VM instruction
	// count gauge (the total reports the maximum over ranks, not a sum).
	InstrsPerPoint int64 `json:"instrs_per_point"`
	// ShotsDone counts FWI shots completed by RunShots.
	ShotsDone int64 `json:"shots_done"`
	// ShotWorkers is RunShots's shots-in-flight gauge (the
	// total reports the maximum over ranks, not a sum).
	ShotWorkers int64 `json:"shot_workers"`
	// PoolSyncNs is the worker pool's cumulative dispatch join wait.
	PoolSyncNs int64 `json:"pool_sync_ns"`
	// PoolIdleNs is the pool workers' cumulative in-dispatch idle time.
	PoolIdleNs int64 `json:"pool_idle_ns"`
}

// Metrics is a full snapshot of the metrics registry — what
// DEVIGO_METRICS writes and the "obs" block of BENCH_autotune.json.
type Metrics struct {
	// Ranks holds one entry per rank that recorded anything.
	Ranks []RankMetrics `json:"ranks,omitempty"`
	// Total sums the per-rank counters (Rank == -1).
	Total RankMetrics `json:"total"`
	// Decisions is the autotuner decision log.
	Decisions []Decision `json:"autotune_decisions,omitempty"`
	// Regret is chosen-measured-cost / best-measured-cost - 1 over the
	// logged search trials: 0 when the autotuner picked the empirically
	// best candidate (or when nothing was measured).
	Regret float64 `json:"autotune_regret"`
}

func (r *recorder) snapshot(rank int) RankMetrics {
	return RankMetrics{
		Rank:           rank,
		StepMsgs:       r.ctr[CtrStepMsgs].Load(),
		StepBytes:      r.ctr[CtrStepBytes].Load(),
		PreambleMsgs:   r.ctr[CtrPreMsgs].Load(),
		PreambleBytes:  r.ctr[CtrPreBytes].Load(),
		RecvWaitNs:     r.ctr[CtrRecvWaitNs].Load(),
		ShellPoints:    r.ctr[CtrShellPoints].Load(),
		WarmupSteps:    r.ctr[CtrWarmupSteps].Load(),
		TrialSteps:     r.ctr[CtrTrialSteps].Load(),
		SteadySteps:    r.ctr[CtrSteadySteps].Load(),
		CkptSaves:      r.ctr[CtrCkptSaves].Load(),
		CkptRestores:   r.ctr[CtrCkptRestores].Load(),
		InstrsPerPoint: r.ctr[CtrInstrsPerPoint].Load(),
		ShotsDone:      r.ctr[CtrShotsDone].Load(),
		ShotWorkers:    r.ctr[CtrShotWorkers].Load(),
		PoolSyncNs:     r.ctr[CtrPoolSyncNs].Load(),
		PoolIdleNs:     r.ctr[CtrPoolIdleNs].Load(),
	}
}

func (m *RankMetrics) accumulate(r RankMetrics) {
	m.StepMsgs += r.StepMsgs
	m.StepBytes += r.StepBytes
	m.PreambleMsgs += r.PreambleMsgs
	m.PreambleBytes += r.PreambleBytes
	m.RecvWaitNs += r.RecvWaitNs
	m.ShellPoints += r.ShellPoints
	m.WarmupSteps += r.WarmupSteps
	m.TrialSteps += r.TrialSteps
	m.SteadySteps += r.SteadySteps
	m.CkptSaves += r.CkptSaves
	m.CkptRestores += r.CkptRestores
	if r.InstrsPerPoint > m.InstrsPerPoint {
		m.InstrsPerPoint = r.InstrsPerPoint
	}
	m.ShotsDone += r.ShotsDone
	if r.ShotWorkers > m.ShotWorkers {
		m.ShotWorkers = r.ShotWorkers
	}
	m.PoolSyncNs += r.PoolSyncNs
	m.PoolIdleNs += r.PoolIdleNs
}

// Snapshot collects the current state of every rank's counters plus the
// decision log into a Metrics report. It is safe to call while recording
// continues (counters are read atomically, one at a time).
func Snapshot() Metrics {
	m := Metrics{Total: RankMetrics{Rank: -1}}
	for rank := 0; rank < MaxRanks; rank++ {
		r := recs[rank].Load()
		if r == nil {
			continue
		}
		rm := r.snapshot(rank)
		if rm == (RankMetrics{Rank: rank}) {
			continue
		}
		m.Ranks = append(m.Ranks, rm)
		m.Total.accumulate(rm)
	}
	decMu.Lock()
	m.Decisions = append([]Decision(nil), decisions...)
	decMu.Unlock()
	sort.SliceStable(m.Decisions, func(i, j int) bool {
		return m.Decisions[i].Rank < m.Decisions[j].Rank
	})
	m.Regret = regret(m.Decisions)
	return m
}

// regret computes chosen/best - 1 over the measured decisions; 0 when the
// log holds no measured trial or no chosen entry.
func regret(ds []Decision) float64 {
	best, chosen := 0.0, 0.0
	for _, d := range ds {
		if d.MeasuredSec <= 0 {
			continue
		}
		if best == 0 || d.MeasuredSec < best {
			best = d.MeasuredSec
		}
		if d.Chosen && (chosen == 0 || d.MeasuredSec < chosen) {
			chosen = d.MeasuredSec
		}
	}
	if best == 0 || chosen == 0 {
		return 0
	}
	return chosen/best - 1
}

// WriteMetricsFile writes the current Snapshot as indented JSON.
func WriteMetricsFile(path string) error {
	m := Snapshot()
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
