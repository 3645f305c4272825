package propagators

import (
	"strings"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
)

// FuzzEnginesAgree is the randomized arm of the differential suite: the
// fuzzer drives scenario, grid shape, space order, step count, halo mode,
// exchange interval and decomposition knobs from the input bytes, and
// every reachable configuration must produce bit-identical wavefields on
// all three engines — serially for interpreter and native against the
// bytecode baseline, and on every rank of a 4-rank run for native (the
// engine whose specialized chain lowering has the most shapes to get
// wrong). Shapes deliberately wander over odd sizes so the native
// engine's vectorized-strip/scalar-tail split lands on every residue.
//
// The checked-in corpus (testdata/fuzz/FuzzEnginesAgree) pins one seed
// per scenario plus halo-mode/interval variety; `go test` replays it on
// every run, and CI additionally runs a time-boxed `-fuzz` smoke to keep
// exploring fresh inputs.

// fuzzCase is the decoded configuration of one fuzz execution.
type fuzzCase struct {
	model   string
	rows    int
	cols    int
	so      int
	nt      int
	mode    halo.Mode
	k       int
	workers int
}

// decodeFuzzCase maps arbitrary bytes onto a valid-looking configuration
// (missing bytes default to zero). Every value is clamped into the cheap
// regime: the fuzzer's job is breadth over lowering shapes, not grid
// scale. Bytes 8 and 9 once selected the tile height and a since-removed
// dispatch mode; both are now ignored, so checked-in corpus entries keep
// the rest of their meaning.
func decodeFuzzCase(data []byte) fuzzCase {
	b := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	names := ModelNames()
	return fuzzCase{
		model:   names[b(0)%len(names)],
		rows:    16 + b(1)%12,
		cols:    16 + b(2)%12,
		so:      []int{2, 4, 8}[b(3)%3],
		nt:      4 + b(4)%10,
		mode:    []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull}[b(5)%3],
		k:       1 + b(6)%4,
		workers: 1 + b(7)%7,
	}
}

// fuzzSerial runs the case serially with the given engine.
func fuzzSerial(fc fuzzCase, engine string) (*Model, *RunResult, error) {
	m, err := Build(fc.model, serialCfg([]int{fc.rows, fc.cols}, fc.so))
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(m, nil, RunConfig{NT: fc.nt, NReceivers: 4, Exec: Exec{Engine: engine,
		Workers: fc.workers}})
	if res != nil {
		res.Op.Close()
	}
	return m, res, err
}

// fuzzDMP runs the case over a 2x2 decomposition and returns the rank-0
// norm and receiver traces.
func fuzzDMP(fc fuzzCase, engine string) (float64, [][]float64, error) {
	out, err := runOnRanks(fc.model, []int{fc.rows, fc.cols}, []int{2, 2}, fc.mode, fc.so,
		RunConfig{NT: fc.nt, NReceivers: 4, Exec: Exec{Engine: engine,
			Workers: fc.workers, TimeTile: fc.k}})
	if err != nil {
		return 0, nil, err
	}
	return out[0].Norm, out[0].Receivers, nil
}

func FuzzEnginesAgree(f *testing.F) {
	// One seed per scenario, then halo-mode / interval / odd-shape variety.
	for i := range ModelNames() {
		f.Add([]byte{byte(i), 4, 4, 1, 6, 1, 0, 1, 2})
	}
	f.Add([]byte{0, 1, 7, 2, 3, 0, 1, 2, 4}) // odd cols: SIMD tail in play
	f.Add([]byte{1, 9, 2, 0, 5, 2, 3, 0, 0}) // elastic, full overlap, k=4
	f.Add([]byte{2, 5, 5, 1, 2, 1, 1, 2, 1}) // tti, diagonal, k=2
	f.Add([]byte{3, 0, 3, 2, 7, 0, 0, 1, 3}) // viscoelastic, basic, so-8
	// Worker-pool tier: workers > 1 with time tiling and the native
	// engine's bulk-row chains.
	f.Add([]byte{0, 3, 6, 1, 5, 2, 3, 5, 2, 0}) // acoustic, full, k=4, 6-worker pool
	f.Add([]byte{2, 7, 1, 2, 4, 2, 1, 6, 3, 1}) // tti, full, k=2, 7-worker pool
	f.Add([]byte{1, 2, 8, 0, 6, 1, 3, 3, 1, 0}) // elastic, diag, k=4, 4-worker pool

	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)

		// The bytecode baseline legitimizes the configuration: if it cannot
		// run (e.g. an exchange interval too deep for the decomposition),
		// the input is uninteresting. Once the baseline runs, an error from
		// any other engine on the same configuration is itself a failure.
		mB, resB, err := fuzzSerial(fc, core.EngineBytecode)
		if err != nil {
			t.Skip(err)
		}
		for _, engine := range altEngines {
			mX, resX, err := fuzzSerial(fc, engine)
			if err != nil {
				t.Fatalf("%+v: %s failed where bytecode ran: %v", fc, engine, err)
			}
			if resB.Norm != resX.Norm && (resB.Norm == resB.Norm || resX.Norm == resX.Norm) {
				t.Errorf("%+v: serial norms diverge: bytecode %v, %s %v", fc, resB.Norm, engine, resX.Norm)
			}
			for it := range resB.Receivers {
				for r := range resB.Receivers[it] {
					a, b := resB.Receivers[it][r], resX.Receivers[it][r]
					if a != b && (a == a || b == b) {
						t.Fatalf("%+v: serial trace (%d,%d) diverges: %v vs %s %v", fc, it, r, a, engine, b)
					}
				}
			}
			compareModels(t, fc.model, engine, mB, mX)
		}

		normB, tracesB, err := fuzzDMP(fc, core.EngineBytecode)
		if err != nil {
			if strings.Contains(err.Error(), "panic:") {
				t.Fatalf("%+v: bytecode 4-rank run panicked: %v", fc, err)
			}
			t.Skip(err) // an infeasible case (shape, halo, decomposition), not a finding
		}
		normN, tracesN, err := fuzzDMP(fc, core.EngineNative)
		if err != nil {
			t.Fatalf("%+v: native 4-rank failed where bytecode ran: %v", fc, err)
		}
		if normB != normN && (normB == normB || normN == normN) {
			t.Errorf("%+v: 4-rank norms diverge: bytecode %v, native %v", fc, normB, normN)
		}
		for it := range tracesB {
			for r := range tracesB[it] {
				a, b := tracesB[it][r], tracesN[it][r]
				if a != b && (a == a || b == b) {
					t.Fatalf("%+v: 4-rank trace (%d,%d) diverges: %v vs native %v", fc, it, r, a, b)
				}
			}
		}
	})
}
