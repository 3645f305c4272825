package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/perfmodel"
	"devigo/internal/propagators"
)

// AutotuneCandidate is one exhaustively-swept configuration with its
// measured runtime and result checksum.
type AutotuneCandidate struct {
	Mode     string  `json:"mode"`
	Workers  int     `json:"workers"`
	TileRows int     `json:"tile_rows"`
	TimeTile int     `json:"time_tile"`
	Seconds  float64 `json:"seconds"`
	Norm     float64 `json:"norm"`
}

// AutotuneChoice records what one policy picked and how it compares to
// the exhaustive best: Seconds is the chosen configuration's *swept*
// runtime (same measurement protocol as every candidate), so RatioVsBest
// is exactly 1.0 when the tuner finds the true optimum.
type AutotuneChoice struct {
	Config      core.EffectiveConfig `json:"config"`
	Seconds     float64              `json:"seconds"`
	RatioVsBest float64              `json:"ratio_vs_best"`
}

// AutotuneScenario is one scenario block of BENCH_autotune.json.
type AutotuneScenario struct {
	Name       string              `json:"name"`
	Shape      []int               `json:"shape"`
	SpaceOrder int                 `json:"space_order"`
	NT         int                 `json:"nt"`
	Ranks      int                 `json:"ranks"`
	Candidates []AutotuneCandidate `json:"candidates"`
	Best       AutotuneCandidate   `json:"best"`
	// Chosen maps policy ("model", "search") to its pick.
	Chosen map[string]AutotuneChoice `json:"chosen"`
	// BitExact is true when every candidate run and every autotuned run
	// produced the identical result norm — the invariance the in-place
	// tuner relies on.
	BitExact bool `json:"bit_exact"`
	// Obs is the scenario's metrics-registry snapshot: its decision log
	// records what the policies considered, and its regret prices the
	// search policy's pick against its own measured trials.
	Obs obs.Metrics `json:"obs"`
}

// HostFingerprint names the machine a sweep ran on, so its timings are
// never read as another host's.
type HostFingerprint struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	MaxProcs  int    `json:"maxprocs"`
	NumCPU    int    `json:"numcpu"`
	GoVersion string `json:"go_version"`
}

func hostFingerprint() HostFingerprint {
	return HostFingerprint{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// AutotuneReport is the BENCH_autotune.json schema: chosen-vs-exhaustive-
// best per scenario, on the host that measured it.
type AutotuneReport struct {
	Host       HostFingerprint    `json:"host"`
	MaxWorkers int                `json:"max_workers"`
	Scenarios  []AutotuneScenario `json:"scenarios"`
}

// atRun is one measured run: the slowest rank's kernel+halo seconds, the
// global result norm, and the effective configuration.
type atRun struct {
	seconds float64
	norm    float64
	eff     core.EffectiveConfig
}

// autotuneScenario describes one sweep target.
type autotuneScenario struct {
	name  string
	model string
	ranks int
	// mode is the context pattern autotuned runs start from (ignored when
	// serial); the sweep overrides it per candidate.
	mode halo.Mode
}

// runAutotuneExp sweeps the autotuner's full candidate space per
// scenario and space order, then lets each policy choose, and reports
// chosen-vs-best. Scenario failures and bit-exactness violations are
// errors: CI consumes the exit status.
func runAutotuneExp(models []string, sos []int, size, nt int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	report := AutotuneReport{Host: hostFingerprint(), MaxWorkers: perfmodel.MaxWorkersDefault()}
	scenarios := make([]autotuneScenario, 0, len(models)+1)
	for _, m := range models {
		scenarios = append(scenarios, autotuneScenario{name: m, model: m, ranks: 1})
	}
	scenarios = append(scenarios,
		autotuneScenario{name: "acoustic-dmp4", model: "acoustic", ranks: 4, mode: halo.ModeBasic})

	for _, so := range sos {
		for _, sc := range scenarios {
			if len(sos) > 1 {
				sc.name = fmt.Sprintf("%s_so%d", sc.name, so)
			}
			block, err := runAutotuneScenario(sc, size, so, nt)
			if err != nil {
				return fmt.Errorf("%s: %w", sc.name, err)
			}
			report.Scenarios = append(report.Scenarios, *block)
			if !block.BitExact {
				return fmt.Errorf("%s: results differ across configurations (autotune invariance broken)", sc.name)
			}
		}
	}

	path := filepath.Join(outDir, "BENCH_autotune.json")
	if err := writeJSON(path, &report); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runAutotuneScenario(sc autotuneScenario, size, so, nt int) (*AutotuneScenario, error) {
	obs.EnableMetrics()
	obs.Reset()
	shape := []int{size, size}
	cfg := propagators.Config{Shape: shape, SpaceOrder: so, NBL: 8, Velocity: 1.5}
	block := &AutotuneScenario{
		Name: sc.name, Shape: shape, SpaceOrder: so, NT: nt, Ranks: sc.ranks,
		Chosen: map[string]AutotuneChoice{},
	}

	prof, err := autotuneProfile(sc, cfg)
	if err != nil {
		return nil, err
	}
	cands := perfmodel.Candidates(prof)
	fmt.Printf("Autotune sweep %s: %dx%d so-%02d nt=%d ranks=%d, %d candidates\n",
		sc.name, size, size, so, nt, sc.ranks, len(cands))

	// Exhaustive sweep: every candidate measured with the same protocol
	// (best of 3 repetitions of the slowest rank's kernel+halo seconds).
	// Every repetition's norm — not just the kept one's — is checked
	// against the reference, so nondeterminism in a discarded rep still
	// fails the invariance gate.
	const reps = 3
	var refNorm float64
	haveRef := false
	bitExact := true
	for _, c := range cands {
		best := atRun{}
		for rep := 0; rep < reps; rep++ {
			r, err := autotuneRunOne(sc, cfg, nt, c, "")
			if err != nil {
				return nil, err
			}
			if !haveRef {
				refNorm, haveRef = r.norm, true
			} else if r.norm != refNorm {
				bitExact = false
			}
			if rep == 0 || r.seconds < best.seconds {
				best = r
			}
		}
		kc := c.TimeTile
		if kc < 1 {
			kc = 1
		}
		block.Candidates = append(block.Candidates, AutotuneCandidate{
			Mode: c.Mode.String(), Workers: c.Workers, TileRows: c.TileRows, TimeTile: kc,
			Seconds: best.seconds, Norm: best.norm,
		})
	}
	bestIdx := 0
	for i, c := range block.Candidates {
		if c.Seconds < block.Candidates[bestIdx].Seconds {
			bestIdx = i
		}
	}
	block.Best = block.Candidates[bestIdx]

	// Let each policy choose, then price the choice with its sweep entry.
	for _, policy := range []string{core.AutotuneModel, core.AutotuneSearch} {
		r, err := autotuneRunOne(sc, cfg, nt, perfmodel.ExecConfig{}, policy)
		if err != nil {
			return nil, err
		}
		if r.norm != refNorm {
			bitExact = false
		}
		swept, ok := lookupCandidate(block.Candidates, r.eff)
		if !ok {
			return nil, fmt.Errorf("policy %s chose %s/w%d/t%d which is outside the candidate sweep",
				policy, r.eff.Mode, r.eff.Workers, r.eff.TileRows)
		}
		block.Chosen[policy] = AutotuneChoice{
			Config:      r.eff,
			Seconds:     swept.Seconds,
			RatioVsBest: swept.Seconds / block.Best.Seconds,
		}
		fmt.Printf("  %-7s chose %s/w%d/t%d: %.4fs vs best %s/w%d/t%d %.4fs (ratio %.2f)\n",
			policy, r.eff.Mode, r.eff.Workers, r.eff.TileRows, swept.Seconds,
			block.Best.Mode, block.Best.Workers, block.Best.TileRows, block.Best.Seconds,
			block.Chosen[policy].RatioVsBest)
	}
	block.BitExact = bitExact
	block.Obs = obs.Snapshot()
	return block, nil
}

func lookupCandidate(cands []AutotuneCandidate, eff core.EffectiveConfig) (AutotuneCandidate, bool) {
	for _, c := range cands {
		if c.Mode == eff.Mode && c.Workers == eff.Workers && c.TileRows == eff.TileRows && c.TimeTile == eff.TimeTile {
			return c, true
		}
	}
	return AutotuneCandidate{}, false
}

// autotuneProfile compiles the scenario's operator once (no timesteps)
// and extracts its autotuner profile, so the sweep enumerates exactly the
// candidate set the tuner plans over.
func autotuneProfile(sc autotuneScenario, cfg propagators.Config) (perfmodel.OpProfile, error) {
	var prof perfmodel.OpProfile
	err := mpi.RunRanks(sc.ranks, func(c *mpi.Comm) error {
		m, ctx, err := propagators.OnRank(c, sc.model, cfg, sc.mode, nil)
		if err != nil {
			return err
		}
		// TimeTile pinned to 1 so a stray DEVIGO_TIME_TILE cannot open the
		// k-axis: this experiment's contract is the classic
		// (mode x workers x tile_rows) space.
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{TimeTile: 1})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			prof = op.Profile()
		}
		return nil
	})
	return prof, err
}

// autotuneRunOne executes one scenario run, either forced to a candidate
// configuration (policy == "") or self-configuring under a policy.
func autotuneRunOne(sc autotuneScenario, cfg propagators.Config, nt int, cand perfmodel.ExecConfig, policy string) (atRun, error) {
	// Deep-halo capacity is deliberately NOT provisioned here — TimeTile
	// is pinned to 1 on every run (candidates carry time_tile 1; a stray
	// DEVIGO_TIME_TILE must not leak in), so the candidate space is the
	// classic (mode x workers x tile_rows) grid.
	rc := propagators.RunConfig{NT: nt, NReceivers: 4, Exec: propagators.Exec{TimeTile: 1, Autotune: policy}}
	mode := sc.mode
	if policy == "" {
		rc.Workers = cand.Workers
		rc.TileRows = cand.TileRows
		rc.TimeTile = cand.TimeTile
		rc.Autotune = core.AutotuneOff
		mode = cand.Mode
	}
	var out atRun
	err := mpi.RunRanks(sc.ranks, func(c *mpi.Comm) error {
		m, ctx, err := propagators.OnRank(c, sc.model, cfg, mode, nil)
		if err != nil {
			return err
		}
		res, err := propagators.Run(m, ctx, rc)
		if err != nil {
			return err
		}
		sec := c.AllreduceScalar(res.Perf.ComputeSeconds+res.Perf.HaloSeconds, mpi.OpMax)
		if c.Rank() == 0 {
			out = atRun{seconds: sec, norm: res.Norm, eff: res.Op.Config()}
		}
		return nil
	})
	return out, err
}
