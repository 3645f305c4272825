package main

import (
	"fmt"
	"html"
	"math"
	"strings"

	"devigo/internal/perfmodel"
)

// The observatory's static HTML report. Everything is emitted inline —
// no external assets, no scripts beyond native SVG tooltips — so the
// file works as a CI artifact opened straight from a download. Chart
// styling follows the repository's data-viz conventions: a validated
// 2-slot categorical palette (blue/orange, with distinct steps for dark
// mode), thin marks with rounded data-ends, hairline solid gridlines,
// text in ink tokens (never series colors), a legend for multi-series
// charts, and a table view under every chart so no value is gated on
// color or hover.

// observatoryHTML renders the full report. The baselines table is always
// there; the roofline, halo-traffic and model-error panels read per-layer
// metrics and so appear only when the ingested run was a `--trace 1` one.
func observatoryHTML(r *ObservatoryReport) string {
	var b strings.Builder
	b.WriteString(htmlHead)
	fmt.Fprintf(&b, `<header><h1>devigo perf observatory</h1>
<p class="sub">generated %s · host %s · history depth %d</p></header>
`, html.EscapeString(r.GeneratedAt), html.EscapeString(hostKey(r.Host)), r.HistoryEntries)

	writeKPIRow(&b, r)
	writeRoofline(&b, r)
	writeCommChart(&b, r)
	writeModelError(&b, r)
	writeBaselines(&b, r)

	b.WriteString("</main></body></html>\n")
	return b.String()
}

const htmlHead = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width,initial-scale=1">
<title>devigo perf observatory</title>
<style>
.viz-root, body {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --status-good: #006300; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) body {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --status-good: #0ca30c; --status-critical: #d03b3b;
  }
}
body { margin: 0; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main, header { max-width: 960px; margin: 0 auto; padding: 0 20px; }
header { padding-top: 28px; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 0 0 2px; }
.sub { color: var(--ink-2); margin: 0; font-size: 13px; }
section.card { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 10px; padding: 16px 18px 12px; margin: 18px 0; }
.kpis { display: flex; gap: 14px; flex-wrap: wrap; margin-top: 18px; }
.kpi { flex: 1 1 150px; background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 10px; padding: 12px 16px; }
.kpi .label { color: var(--ink-2); font-size: 12px; }
.kpi .value { font-size: 26px; font-weight: 600; }
.kpi .note { color: var(--ink-muted); font-size: 12px; }
.good { color: var(--status-good); } .bad { color: var(--status-critical); }
svg { display: block; max-width: 100%; height: auto; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; fill: var(--ink-muted); }
svg text.val { fill: var(--ink-2); }
.legend { display: flex; gap: 16px; color: var(--ink-2); font-size: 12px;
  margin: 4px 0 8px; align-items: center; }
.legend .key { display: inline-block; width: 10px; height: 10px; border-radius: 3px;
  margin-right: 5px; vertical-align: -1px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0 4px; font-size: 12.5px; }
th { text-align: left; color: var(--ink-2); font-weight: 600; }
th, td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
details > summary { cursor: pointer; color: var(--ink-2); font-size: 12.5px; margin-top: 6px; }
</style></head><body><main>
`

// writeKPIRow emits the headline stat tiles.
func writeKPIRow(b *strings.Builder, r *ObservatoryReport) {
	baselined := 0
	for _, bl := range r.Baselines {
		if bl.Samples > 0 {
			baselined++
		}
	}
	fmt.Fprintf(b, `<div class="kpis">
<div class="kpi"><div class="label">Workloads</div><div class="value">%d</div><div class="note">blocks of the bench/run.sh transcript</div></div>
<div class="kpi"><div class="label">Baselined metrics</div><div class="value">%d</div><div class="note">end-to-end, vs same-host median</div></div>
`, len(r.Runs), baselined)
	if r.Regressions > 0 {
		fmt.Fprintf(b, `<div class="kpi"><div class="label">Regressions</div><div class="value bad">▲ %d</div><div class="note">worse than baseline by more than the bound</div></div>
`, r.Regressions)
	} else {
		fmt.Fprintf(b, `<div class="kpi"><div class="label">Regressions</div><div class="value good">✓ 0</div><div class="note">vs same-host baseline median</div></div>
`)
	}
	b.WriteString("</div>\n")
}

// niceTicks picks ~n clean tick values covering [0, max].
func niceTicks(max float64, n int) []float64 {
	if max <= 0 {
		return []float64{0, 1}
	}
	raw := max / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag >= 5:
		step = 10 * mag
	case raw/mag >= 2:
		step = 5 * mag
	case raw/mag >= 1:
		step = 2 * mag
	default:
		step = mag
	}
	var ticks []float64
	for v := 0.0; v <= max+step/2; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

func trimNum(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// rooflinePoint places one workload's native kernel on the roofline from
// its per-layer metrics: operational intensity (flops over bytes moved per
// computed point) against achieved flop rate (flops per kernel
// nanosecond).
type rooflinePoint struct {
	Name                string
	AI, GFlops, NsPerPt float64
}

// writeRoofline emits the roofline scatter: every workload whose run
// carried the native kernel metrics, with the DRAM-bandwidth bound (the
// run's own measured triad when it has one, else the autotuner host
// model's) as a muted reference diagonal. Single series, so the points are
// direct-labeled and need no legend.
func writeRoofline(b *strings.Builder, r *ObservatoryReport) {
	var pts []rooflinePoint
	maxX, maxY := 0.0, 0.0
	bw, bwName := perfmodel.DefaultHost().MemBandwidth/1e9, "host-model" // GB/s
	for _, run := range r.Runs {
		m := run.Metrics
		if t := m["host.triad_gbps"]; t > 0 {
			bw, bwName = t, "measured triad"
		}
		flops, bytes, ns := m["native.flops_per_point"], m["native.bytes_per_point_computed"], m["native.kernel_ns_per_point"]
		if flops > 0 && bytes > 0 && ns > 0 {
			p := rooflinePoint{Name: run.Workload, AI: flops / bytes, GFlops: flops / ns, NsPerPt: ns}
			pts = append(pts, p)
			maxX = math.Max(maxX, p.AI)
			maxY = math.Max(maxY, p.GFlops)
		}
	}
	if len(pts) == 0 {
		return
	}
	maxY = math.Max(maxY, math.Min(maxX*bw, maxY*2))
	const W, H = 640, 300
	const L, R, T, B = 54, 16, 14, 40
	pw, ph := float64(W-L-R), float64(H-T-B)
	xticks, yticks := niceTicks(maxX*1.15, 5), niceTicks(maxY*1.15, 5)
	xmax, ymax := xticks[len(xticks)-1], yticks[len(yticks)-1]
	X := func(v float64) float64 { return L + v/xmax*pw }
	Y := func(v float64) float64 { return T + ph - v/ymax*ph }

	fmt.Fprintf(b, `<section class="card"><h2>Roofline — measured native kernels</h2>
<p class="sub">achieved GFLOP/s against operational intensity; diagonal = %s DRAM bound</p>
`, bwName)
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" role="img" aria-label="Roofline scatter of measured serial kernel performance">`, W, H)
	for _, v := range yticks {
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`, L, Y(v), W-R, Y(v))
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`, L-6, Y(v)+4, trimNum(v))
	}
	for _, v := range xticks {
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`, X(v), H-B+16, trimNum(v))
	}
	// Axis baselines, then the bandwidth bound clipped to the plot.
	fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--axis)" stroke-width="1"/>`, L, Y(0), W-R, Y(0))
	xEnd := math.Min(xmax, ymax/bw)
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--axis)" stroke-width="1" stroke-linecap="round"/>`,
		X(0), Y(0), X(xEnd), Y(xEnd*bw))
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" text-anchor="end">DRAM bound %.0f GB/s</text>`,
		X(xEnd)-4, Y(xEnd*bw)+14, bw)
	for _, p := range pts {
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="6" fill="var(--series-1)" stroke="var(--surface-1)" stroke-width="2"><title>%s: AI %.2f F/B, %.2f GFLOP/s (%.2f ns/point)</title></circle>`,
			X(p.AI), Y(p.GFlops), html.EscapeString(p.Name), p.AI, p.GFlops, p.NsPerPt)
		fmt.Fprintf(b, `<text class="val" x="%.1f" y="%.1f">%s</text>`,
			X(p.AI)+9, Y(p.GFlops)+4, html.EscapeString(p.Name))
	}
	fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">operational intensity (flop/byte)</text>`, L+pw/2, H-6)
	fmt.Fprintf(b, `<text transform="translate(12,%.1f) rotate(-90)" text-anchor="middle">GFLOP/s</text>`, T+ph/2)
	b.WriteString("</svg>\n")

	b.WriteString(`<details><summary>Table view</summary><table>
<tr><th>workload</th><th class="num">AI (F/B)</th><th class="num">GFLOP/s</th><th class="num">kernel ns/point</th></tr>`)
	for _, p := range pts {
		fmt.Fprintf(b, `<tr><td>%s</td><td class="num">%.2f</td><td class="num">%.2f</td><td class="num">%.3f</td></tr>`,
			html.EscapeString(p.Name), p.AI, p.GFlops, p.NsPerPt)
	}
	b.WriteString("</table></details></section>\n")
}

// writeCommChart emits the measured-vs-model communication chart:
// grouped bars (two series, legend present) of per-rank per-step halo
// messages for every workload that exchanged any. CommStats counts real
// neighbours, so the pairs must coincide — visible daylight between a
// group's bars is a model bug.
func writeCommChart(b *strings.Builder, r *ObservatoryReport) {
	var runs []ObsRun
	maxV := 0.0
	for _, run := range r.Runs {
		meas, model := run.Metrics["halo.msgs_per_step"], run.Metrics["halo.model_msgs_per_step"]
		if meas > 0 || model > 0 {
			runs = append(runs, run)
			maxV = math.Max(maxV, math.Max(meas, model))
		}
	}
	if len(runs) == 0 {
		return
	}
	const barW, gap, groupGap = 28, 2, 64
	groupW := 2*barW + gap
	const L, R, T, B = 54, 16, 14, 32
	W := L + R + len(runs)*(groupW+groupGap)
	const H = 260
	ph := float64(H - T - B)
	yticks := niceTicks(maxV*1.1, 5)
	ymax := yticks[len(yticks)-1]
	Y := func(v float64) float64 { return T + ph - v/ymax*ph }

	b.WriteString(`<section class="card"><h2>Halo traffic — measured vs model</h2>
<p class="sub">per-rank per-step halo messages; the obs counters must match the closed-form prediction</p>
<div class="legend"><span><span class="key" style="background:var(--series-1)"></span>measured (obs counters)</span>
<span><span class="key" style="background:var(--series-2)"></span>model (CommStats)</span></div>
`)
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" role="img" aria-label="Measured versus modelled halo messages per step">`, W, H)
	for _, v := range yticks {
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`, L, Y(v), W-R, Y(v))
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`, L-6, Y(v)+4, trimNum(v))
	}
	bar := func(x, v float64, color, tip string) {
		y := Y(v)
		h := T + ph - y
		if h < 4 {
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%d" height="%.1f" fill="%s"><title>%s</title></rect>`,
				x, y, barW, h, color, tip)
			return
		}
		fmt.Fprintf(b, `<path d="M%.1f %.1f V%.1f Q%.1f %.1f %.1f %.1f H%.1f Q%.1f %.1f %.1f %.1f V%.1f Z" fill="%s"><title>%s</title></path>`,
			x, T+ph, y+4, x, y, x+4, y, x+barW-4, x+float64(barW), y, x+float64(barW), y+4, T+ph, color, tip)
	}
	for i, run := range runs {
		x := float64(L + i*(groupW+groupGap) + groupGap/2)
		name := html.EscapeString(run.Workload)
		meas, model := run.Metrics["halo.msgs_per_step"], run.Metrics["halo.model_msgs_per_step"]
		bar(x, meas, "var(--series-1)", fmt.Sprintf("%s measured: %.2f msgs/step", name, meas))
		bar(x+barW+gap, model, "var(--series-2)", fmt.Sprintf("%s model: %.2f msgs/step", name, model))
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`, x+float64(groupW)/2, H-B+14, name)
	}
	fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--axis)" stroke-width="1"/>`, L, Y(0), W-R, Y(0))
	fmt.Fprintf(b, `<text transform="translate(12,%.1f) rotate(-90)" text-anchor="middle">messages per rank per step</text>`, T+ph/2)
	b.WriteString("</svg>\n")

	b.WriteString(`<details><summary>Table view</summary><table>
<tr><th>workload</th><th class="num">measured msgs/step</th><th class="num">model msgs/step</th><th class="num">bytes/step</th><th class="num">wait ns/step</th></tr>`)
	for _, run := range runs {
		m := run.Metrics
		fmt.Fprintf(b, `<tr><td>%s</td><td class="num">%.2f</td><td class="num">%.2f</td><td class="num">%.0f</td><td class="num">%.0f</td></tr>`,
			html.EscapeString(run.Workload), m["halo.msgs_per_step"], m["halo.model_msgs_per_step"],
			m["halo.bytes_per_step"], m["halo.wait_ns_per_step"])
	}
	b.WriteString("</table></details></section>\n")
}

// writeModelError emits the cost model's per-workload prediction error (a
// table — the values are the story, not a shape).
func writeModelError(b *strings.Builder, r *ObservatoryReport) {
	rows := 0
	for _, run := range r.Runs {
		e, ok := run.Metrics["perfmodel.predict_err"]
		if !ok {
			continue
		}
		if rows == 0 {
			b.WriteString(`<section class="card"><h2>Cost-model error</h2>
<p class="sub">perfmodel.predict_err: relative gap between the autotuner model's predicted step time and the measured one</p>
<table><tr><th>workload</th><th class="num">predict_err</th></tr>`)
		}
		rows++
		fmt.Fprintf(b, `<tr><td>%s</td><td class="num">%.3f</td></tr>`, html.EscapeString(run.Workload), e)
	}
	if rows > 0 {
		b.WriteString("</table></section>\n")
	}
}

// writeBaselines emits the regression table: every end-to-end metric
// against the same-host baseline median. The table is the canonical view;
// status is carried by icon + label, never color alone.
func writeBaselines(b *strings.Builder, r *ObservatoryReport) {
	if len(r.Baselines) == 0 {
		return
	}
	b.WriteString(`<section class="card"><h2>Same-host baselines</h2>
<p class="sub">end-to-end metrics vs the median of the last 5 same-host history entries; worse by more than the metric's BENCHMARK.json bound fails CI</p>
<table><tr><th>workload</th><th>metric</th><th class="num">value</th><th class="num">baseline</th><th class="num">ratio</th><th class="num">samples</th><th>status</th></tr>`)
	for _, bl := range r.Baselines {
		base, ratio := "—", "—"
		status := `<span class="sub">no baseline yet</span>`
		if bl.Samples > 0 {
			base = fmt.Sprintf("%.6g", bl.Baseline)
			ratio = fmt.Sprintf("%.2f", bl.Ratio)
			if bl.Regressed {
				status = `<span class="bad">▲ regressed</span>`
			} else {
				status = `<span class="good">✓ ok</span>`
			}
		}
		fmt.Fprintf(b, `<tr><td>%s</td><td>%s</td><td class="num">%.6g</td><td class="num">%s</td><td class="num">%s</td><td class="num">%d</td><td>%s</td></tr>`,
			html.EscapeString(bl.Workload), html.EscapeString(bl.Metric), bl.Value, base, ratio, bl.Samples, status)
	}
	b.WriteString("</table></section>\n")
}
