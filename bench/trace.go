package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a library layer.
// Spans of one rep (or round, or survey) share its rep id.
type span struct {
	name       string
	start, end time.Duration // since tracer start
	parent     int           // index of the causing span, -1 for a root
	rep        int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, rep: rep})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerRow is one line of the per-layer table: total and self time of
// every span of one name. Self time is a span's duration minus the part
// its child spans cover.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{Name: s.name}
			rows[s.name] = r
		}
		d := s.end - s.start
		r.Count++
		r.TotalMs += d.Seconds() * 1e3
		r.SelfMs += (d - child[i]).Seconds() * 1e3
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans as Chrome trace_event JSON (one track per rep)
// and the per-layer table beside it.
func (t *tracer) write(dir, stem string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 0, Tid: s.rep,
			Args: map[string]int{"id": i, "parent": s.parent, "rep": s.rep},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.WriteFile(fmt.Sprintf("%s/%s.bench.trace.json", dir, stem), data, 0o644); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range t.table() {
		fmt.Fprintf(&b, "%-28s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
	return os.WriteFile(fmt.Sprintf("%s/%s.layers.txt", dir, stem), []byte(b.String()), 0o644)
}
