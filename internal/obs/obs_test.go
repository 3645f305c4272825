package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// reset returns the subsystem to a pristine disabled state.
func reset() {
	DisableAll()
	Reset()
}

func TestDisabledIsInert(t *testing.T) {
	reset()
	sp := Begin(0, PhaseCompute, 3)
	sp.End()
	CountMsg(0, 100)
	Add(0, CtrShellPoints, 7)
	RecordDecision(Decision{Config: "x"})
	m := Snapshot()
	if m.Total.StepMsgs != 0 || m.Total.ShellPoints != 0 || len(m.Decisions) != 0 {
		t.Fatalf("disabled subsystem recorded data: %+v", m)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

func TestCountersAndClassification(t *testing.T) {
	reset()
	EnableMetrics()
	defer reset()

	SetPreamble(1, true)
	CountMsg(1, 40)
	CountMsg(1, 60)
	SetPreamble(1, false)
	CountMsg(1, 80)
	Add(1, CtrShellPoints, 5)
	Add(1, CtrInstrsPerPoint, 33)
	Add(1, CtrInstrsPerPoint, 44) // gauge: overwrite, not accumulate

	m := Snapshot()
	if len(m.Ranks) != 1 || m.Ranks[0].Rank != 1 {
		t.Fatalf("want one rank-1 entry, got %+v", m.Ranks)
	}
	r := m.Ranks[0]
	if r.PreambleMsgs != 2 || r.PreambleBytes != 100 {
		t.Errorf("preamble counters = %d msgs / %d bytes, want 2 / 100", r.PreambleMsgs, r.PreambleBytes)
	}
	if r.StepMsgs != 1 || r.StepBytes != 80 {
		t.Errorf("step counters = %d msgs / %d bytes, want 1 / 80", r.StepMsgs, r.StepBytes)
	}
	if r.ShellPoints != 5 {
		t.Errorf("shell points = %d, want 5", r.ShellPoints)
	}
	if r.InstrsPerPoint != 44 {
		t.Errorf("instrs/point gauge = %d, want 44 (last set wins)", r.InstrsPerPoint)
	}
	if m.Total.StepMsgs != 1 || m.Total.PreambleMsgs != 2 {
		t.Errorf("total mis-aggregated: %+v", m.Total)
	}
}

func TestMetricsOnlyTimesWaits(t *testing.T) {
	reset()
	EnableMetrics()
	defer reset()

	sp := Begin(0, PhaseCompute, 0)
	sp.End()
	w := Begin(0, PhaseWait, 0)
	w.End()
	m := Snapshot()
	if len(m.Ranks) != 1 || m.Ranks[0].RecvWaitNs <= 0 {
		t.Fatalf("metrics mode must accumulate recv-wait ns, got %+v", m.Ranks)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"X"`) {
		t.Error("metrics-only mode must not record trace spans")
	}
}

func TestTraceExportShape(t *testing.T) {
	reset()
	EnableTracing()
	defer reset()

	Begin(0, PhaseCompute, 0).End()
	Begin(0, PhaseExchange, 0).End()
	BeginStream(0, 1, PhaseWait, 0).End()
	Begin(2, PhaseCompute, 1).End()

	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Step *int    `json:"step"`
				Name *string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, meta int
	phases := map[string]bool{}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			phases[ev.Name] = true
			pids[ev.Pid] = true
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("negative ts/dur in %+v", ev)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans != 4 {
		t.Errorf("want 4 duration events, got %d", spans)
	}
	if meta == 0 {
		t.Error("want process/thread metadata events")
	}
	for _, want := range []string{"compute", "exchange", "wait"} {
		if !phases[want] {
			t.Errorf("missing phase %q in trace, have %v", want, phases)
		}
	}
	if !pids[0] || !pids[2] {
		t.Errorf("want pids {0,2}, got %v", pids)
	}
	// The wait span must also have fed the metrics counter.
	if Snapshot().Total.RecvWaitNs <= 0 {
		t.Error("tracing mode must still accumulate recv-wait ns")
	}
}

func TestRingWrapSurvives(t *testing.T) {
	reset()
	EnableTracing()
	defer reset()
	for i := 0; i < ringCap+100; i++ {
		Begin(0, PhaseCompute, i).End()
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("wrapped trace is not valid JSON: %v", err)
	}
	if n := len(doc["traceEvents"].([]any)); n < ringCap {
		t.Errorf("wrapped ring exported %d events, want >= %d", n, ringCap)
	}
}

func TestRegret(t *testing.T) {
	reset()
	EnableMetrics()
	defer reset()
	RecordDecision(Decision{Config: "a", MeasuredSec: 1.0})
	RecordDecision(Decision{Config: "b", MeasuredSec: 1.2, Chosen: true})
	m := Snapshot()
	if got, want := m.Regret, 0.2; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("regret = %v, want %v", got, want)
	}
	Reset()
	RecordDecision(Decision{Config: "a", PredictedSec: 1, Chosen: true})
	if r := Snapshot().Regret; r != 0 {
		t.Errorf("untimed decisions must have zero regret, got %v", r)
	}
}

func TestResetClears(t *testing.T) {
	reset()
	EnableTracing()
	defer reset()
	Begin(0, PhaseCompute, 0).End()
	CountMsg(0, 10)
	Reset()
	m := Snapshot()
	if len(m.Ranks) != 0 || m.Total.StepMsgs != 0 {
		t.Fatalf("Reset left data behind: %+v", m)
	}
	if !TracingEnabled() {
		t.Error("Reset must not change the enabled state")
	}
}

// TestDisabledCallCost is the core of the trace-overhead guard: with the
// subsystem off, one Begin/End pair plus one CountMsg must cost well under
// 150ns. Real instrumented code paths execute a handful of such calls per
// timestep (tens of microseconds of kernel work), so this bound keeps the
// disabled overhead far below the 2% acceptance budget; the end-to-end
// check lives in propagators' TestObsOverheadDisabled. Under the race
// detector the calls still run (they are what it checks) but the bound is
// not asserted: its instrumentation, not the gate, sets the cost there.
func TestDisabledCallCost(t *testing.T) {
	reset()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := Begin(0, PhaseCompute, i)
			sp.End()
			CountMsg(0, 128)
		}
	})
	perOp := float64(res.NsPerOp())
	if perOp > 150 && !raceEnabled {
		t.Errorf("disabled Begin/End+CountMsg costs %.1f ns, want <= 150", perOp)
	}
	t.Logf("disabled instrumentation: %.2f ns per Begin/End+CountMsg", perOp)
}
