// Package obs is the runtime tracing and metrics subsystem: a
// zero-dependency, near-zero-overhead-when-disabled observability layer
// threaded through the operator runtime, the halo exchangers, the
// checkpoint store and the autotuner.
//
// Two facilities share one per-rank recorder:
//
//   - Spans: timed phase intervals (cluster compute, halo pack/send/
//     wait/unpack, redundant shell recompute, checkpoint save/restore,
//     autotune trials) written into a lock-free per-rank ring buffer and
//     exported as Chrome trace_event JSON (Perfetto-loadable, one track
//     per rank x stream) — see WriteTrace.
//   - Counters: structured per-rank counts (messages, bytes, receive-wait
//     nanoseconds, redundant shell points, warmup/trial/steady steps)
//     plus the autotuner's decision log, snapshotted into the Metrics
//     report DEVIGO_METRICS writes — see Snapshot.
//
// Everything is off by default. The DEVIGO_TRACE and DEVIGO_METRICS
// environment variables (or EnableTracing/EnableMetrics) switch the
// subsystem on; with it off, every instrumentation site reduces to one
// atomic load and a predictable branch, so instrumented hot loops run at
// pre-instrumentation speed (the overhead guard test holds this to
// within noise).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceEnvVar names the trace output file: DEVIGO_TRACE=/path/trace.json
// enables span recording and marks where FlushEnv writes the Chrome
// trace_event JSON.
const TraceEnvVar = "DEVIGO_TRACE"

// MetricsEnvVar names the metrics output file: DEVIGO_METRICS=/path/m.json
// enables counter recording and marks where FlushEnv writes the Snapshot.
const MetricsEnvVar = "DEVIGO_METRICS"

// Phase labels one span kind — the taxonomy of where time goes inside a
// timestep (docs/OBSERVABILITY.md documents each).
type Phase uint8

const (
	// PhaseCompute is a cluster kernel sweep over (part of) the owned box.
	PhaseCompute Phase = iota
	// PhaseShell is the redundant ghost-shell recompute of a time-tiled
	// substep (the communication-avoidance tax).
	PhaseShell
	// PhaseExchange is an operator-level halo-exchange section (the whole
	// synchronous exchange of one step, or a tile-head deep exchange).
	PhaseExchange
	// PhasePack is the staging of one message's send region into its
	// exchange buffer.
	PhasePack
	// PhaseSend is the posting of one packed message.
	PhaseSend
	// PhaseWait is a blocking receive wait; its duration also accumulates
	// into the CtrRecvWaitNs counter.
	PhaseWait
	// PhaseUnpack is the scatter of one received message into the halo.
	PhaseUnpack
	// PhaseCkptSave is a checkpoint snapshot of the wavefields.
	PhaseCkptSave
	// PhaseCkptRestore is a checkpoint restore during a reverse sweep.
	PhaseCkptRestore
	// PhaseAutotuneTrial is one timed candidate window of the autotuner's
	// search.
	PhaseAutotuneTrial
	// PhaseWarmup is the untimed cache-warming step before the first trial.
	PhaseWarmup
	// PhaseShot is one whole FWI shot of RunShots (a checkpointed
	// forward + adjoint gradient in its own world).
	PhaseShot
	// PhaseWorker is one pool worker's share of one dispatched kernel
	// sweep, recorded on that worker's dedicated trace stream
	// (WorkerStream) so the trace shows the team's load balance.
	PhaseWorker
	// PhaseLower is an operator construction's lowering: CIRE, cluster
	// lowering, halo scheduling, the IET build, halo-mode lowering and C
	// emission.
	PhaseLower
	// PhaseCompile is an operator construction's kernel compilation.
	PhaseCompile
	// PhaseHoist is an Apply's priming sweep: the kernels' time-invariant
	// segments run once, before the first step.
	PhaseHoist

	numPhases
)

var phaseNames = [numPhases]string{
	"compute", "shell", "exchange", "pack", "send", "wait", "unpack",
	"ckpt_save", "ckpt_restore", "autotune_trial", "warmup", "shot",
	"worker", "lower", "compile", "hoist",
}

// String returns the phase's trace-event name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Ctr enumerates the per-rank counters of the metrics registry.
type Ctr uint8

const (
	// CtrStepMsgs counts halo messages posted by steady-state (per-step or
	// tile-head) exchanges.
	CtrStepMsgs Ctr = iota
	// CtrStepBytes counts the payload bytes of those messages.
	CtrStepBytes
	// CtrPreMsgs counts once-per-run messages: preamble and hoisted
	// time-invariant parameter exchanges, and retarget refreshes.
	CtrPreMsgs
	// CtrPreBytes counts the payload bytes of those messages.
	CtrPreBytes
	// CtrRecvWaitNs accumulates nanoseconds spent blocked in receive
	// waits (PhaseWait spans).
	CtrRecvWaitNs
	// CtrShellPoints counts redundantly recomputed ghost-shell points of
	// time-tiled substeps.
	CtrShellPoints
	// CtrWarmupSteps counts untimed autotune warmup timesteps.
	CtrWarmupSteps
	// CtrTrialSteps counts timesteps consumed by autotune search trials.
	CtrTrialSteps
	// CtrSteadySteps counts steady-state timesteps (after tuning settled).
	CtrSteadySteps
	// CtrCkptSaves counts checkpoint snapshot operations.
	CtrCkptSaves
	// CtrCkptRestores counts checkpoint restore operations.
	CtrCkptRestores
	// CtrInstrsPerPoint is a gauge (set, not added): the compiled
	// operator's summed per-point VM instruction count.
	CtrInstrsPerPoint
	// CtrShotsDone counts FWI shots completed by RunShots.
	CtrShotsDone
	// CtrShotWorkers is a gauge (set, not added): RunShots's effective
	// bound on shots in flight.
	CtrShotWorkers
	// CtrPoolSyncNs accumulates the worker pool's dispatch sync cost: the
	// caller's join-barrier wait, summed over dispatches.
	CtrPoolSyncNs
	// CtrPoolIdleNs accumulates spawned pool workers' idle time inside
	// dispatches (join time minus each worker's finish time) — the load
	// imbalance the static partition leaves on the table.
	CtrPoolIdleNs

	numCtrs
)

// MaxRanks bounds the per-rank recorder table; ranks beyond it share the
// last slot (in-process worlds here are far smaller).
const MaxRanks = 64

// workerStreamBase offsets the per-pool-worker trace streams: streams
// 1..workerStreamBase-1 are halo exchanger streams, streams >= the base
// are pool workers (WriteTrace names them accordingly).
const workerStreamBase = 1000

// WorkerStream returns the trace stream id of pool worker w — a
// dedicated per-worker track within the rank's trace process.
func WorkerStream(w int) int { return workerStreamBase + w }

// ringCap is the per-rank span capacity (a power of two); older spans are
// overwritten once a rank records more.
const ringCap = 1 << 16

// spanRec is one completed span in the ring.
type spanRec struct {
	start  int64 // ns since the package epoch
	dur    int64
	step   int32
	stream int32
	phase  Phase
}

// recorder holds one rank's ring buffer, counters and exchange scope.
type recorder struct {
	n        atomic.Uint64
	ctr      [numCtrs]atomic.Int64
	preamble atomic.Bool
	buf      [ringCap]spanRec
}

func (r *recorder) add(sp spanRec) {
	i := r.n.Add(1) - 1
	r.buf[i&(ringCap-1)] = sp
}

// mode encodes the subsystem state: 0 off, 1 metrics only (counters +
// wait timing), 2 tracing (spans + counters).
var mode atomic.Int32

const (
	modeOff     = 0
	modeMetrics = 1
	modeTrace   = 2
)

var (
	recs  [MaxRanks]atomic.Pointer[recorder]
	epoch = time.Now()

	decMu     sync.Mutex
	decisions []Decision
)

func now() int64 { return int64(time.Since(epoch)) }

func forRank(rank int) *recorder {
	if rank < 0 {
		rank = 0
	}
	if rank >= MaxRanks {
		rank = MaxRanks - 1
	}
	if r := recs[rank].Load(); r != nil {
		return r
	}
	r := &recorder{}
	if !recs[rank].CompareAndSwap(nil, r) {
		r = recs[rank].Load()
	}
	return r
}

// EnableTracing switches on span recording (which implies counter
// recording — a trace without its counters would not cross-check).
func EnableTracing() { mode.Store(modeTrace) }

// EnableMetrics switches on counter recording without span recording,
// unless tracing is already on (tracing subsumes metrics).
func EnableMetrics() {
	mode.CompareAndSwap(modeOff, modeMetrics)
}

// DisableAll switches the subsystem off; recorded data survives until
// Reset.
func DisableAll() { mode.Store(modeOff) }

// TracingEnabled reports whether spans are being recorded.
func TracingEnabled() bool { return mode.Load() == modeTrace }

// Active reports whether any recording is on — the single cheap check
// instrumentation sites gate on.
func Active() bool { return mode.Load() != modeOff }

// Reset clears every recorder (spans, counters, scopes) and the decision
// log, without changing the enabled state. Benchmarks call it between
// experiments so each report snapshots only its own runs.
func Reset() {
	for i := range recs {
		r := recs[i].Load()
		if r == nil {
			continue
		}
		r.n.Store(0)
		for c := range r.ctr {
			r.ctr[c].Store(0)
		}
		r.preamble.Store(false)
	}
	decMu.Lock()
	decisions = nil
	decMu.Unlock()
}

// Span is an in-flight timed phase; End completes it. The zero Span (as
// returned when recording is off) is inert.
type Span struct {
	r      *recorder
	t0     int64
	step   int32
	stream int32
	phase  Phase
	trace  bool
}

// Begin opens a span on the rank's main track (stream 0). When recording
// is off it returns the inert zero Span at the cost of one atomic load.
func Begin(rank int, ph Phase, step int) Span {
	return BeginStream(rank, 0, ph, step)
}

// BeginStream opens a span on an explicit track: trace tracks are
// (rank, stream) pairs, with stream 0 the operator's time loop and
// exchanger streams offset by one. In metrics-only mode just PhaseWait
// spans are timed (they feed CtrRecvWaitNs); everything else is inert.
func BeginStream(rank, stream int, ph Phase, step int) Span {
	m := mode.Load()
	if m == modeOff || (m == modeMetrics && ph != PhaseWait) {
		return Span{}
	}
	return Span{
		r:      forRank(rank),
		t0:     now(),
		step:   int32(step),
		stream: int32(stream),
		phase:  ph,
		trace:  m == modeTrace,
	}
}

// End completes the span: records it into the rank's ring (when tracing)
// and, for PhaseWait, accumulates the duration into CtrRecvWaitNs.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := now() - s.t0
	if s.phase == PhaseWait {
		s.r.ctr[CtrRecvWaitNs].Add(d)
	}
	if s.trace {
		s.r.add(spanRec{start: s.t0, dur: d, step: s.step, stream: s.stream, phase: s.phase})
	}
}

// Add accumulates v into a rank's counter (no-op when recording is off).
// The gauge counters (CtrInstrsPerPoint, CtrShotWorkers) overwrite
// instead of accumulating.
func Add(rank int, c Ctr, v int64) {
	if mode.Load() == modeOff {
		return
	}
	if c == CtrInstrsPerPoint || c == CtrShotWorkers {
		forRank(rank).ctr[c].Store(v)
		return
	}
	forRank(rank).ctr[c].Add(v)
}

// CountMsg records one posted halo message of n payload bytes, classified
// by the rank's current exchange scope (steady-state step exchange by
// default; preamble while SetPreamble(rank, true) is in effect).
func CountMsg(rank int, n int64) {
	if mode.Load() == modeOff {
		return
	}
	r := forRank(rank)
	if r.preamble.Load() {
		r.ctr[CtrPreMsgs].Add(1)
		r.ctr[CtrPreBytes].Add(n)
		return
	}
	r.ctr[CtrStepMsgs].Add(1)
	r.ctr[CtrStepBytes].Add(n)
}

// SetPreamble marks whether the rank is inside a once-per-run exchange
// section (schedule preamble, hoisted parameter exchanges, retarget
// refreshes), so CountMsg classifies traffic as preamble rather than
// steady state.
func SetPreamble(rank int, pre bool) {
	if mode.Load() == modeOff {
		return
	}
	forRank(rank).preamble.Store(pre)
}
