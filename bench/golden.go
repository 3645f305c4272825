package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"devigo/internal/core"
)

// The repo's hard invariant is that results are bit-identical across
// engines, halo modes, exchange intervals and worker counts at a fixed
// rank count, so the output checks compare float64 bit patterns, not
// tolerances. The seed only picks the source jitter, so golden.json
// holds one entry per problem per jitter (5 x 5 offsets).

//go:embed golden.json
var goldenRaw []byte

type stepGold struct {
	Norm string `json:"norm"` // float64 bits, hex
	Rec  string `json:"rec"`
}

type goldenFile struct {
	Stepping  map[string]map[string]stepGold `json:"stepping"`
	Survey    map[string]map[string]string   `json:"survey"`
	Construct map[string]string              `json:"construct"`
}

func newGolden() *goldenFile {
	return &goldenFile{
		Stepping:  map[string]map[string]stepGold{},
		Survey:    map[string]map[string]string{},
		Construct: map[string]string{},
	}
}

func loadGolden() (*goldenFile, error) {
	g := newGolden()
	if err := json.Unmarshal(goldenRaw, g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

func (g *goldenFile) save(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// stepKey names a stepping problem by everything that may change its
// bits: engine, mode, exchange interval and workers must not.
func stepKey(p stepProblem) string {
	return fmt.Sprintf("acoustic-so%d-n%d-nbl%d-nt%d-r%d", p.so, p.n, p.nbl, p.nt, p.ranks)
}

func jitterKey(j [2]int) string { return fmt.Sprintf("%d,%d", j[0], j[1]) }

// jitters lists every source offset a seed can pick.
func jitters() [][2]int {
	var out [][2]int
	for dx := -2; dx <= 2; dx++ {
		for dy := -2; dy <= 2; dy++ {
			out = append(out, [2]int{dx, dy})
		}
	}
	return out
}

func stepGoldOf(r *repResult) stepGold { return stepGold{Norm: bits(r.norm), Rec: bits(r.recSum)} }

// checkStep compares a rep's outputs with golden; it returns "" when
// they match.
func (g *goldenFile) checkStep(p stepProblem, r *repResult) string {
	if !finite(r.norm) || !finite(r.recSum) {
		return fmt.Sprintf("%s: non-finite output (norm %v, receivers %v)", stepKey(p), r.norm, r.recSum)
	}
	want, ok := g.Stepping[stepKey(p)][jitterKey(p.jitter)]
	if !ok {
		return fmt.Sprintf("%s jitter %s: no golden entry (run -update-golden)", stepKey(p), jitterKey(p.jitter))
	}
	if got := stepGoldOf(r); got != want {
		return fmt.Sprintf("%s jitter %s (%s): got norm %s rec %s, golden norm %s rec %s",
			stepKey(p), jitterKey(p.jitter), r.cfg.Engine, got.Norm, got.Rec, want.Norm, want.Rec)
	}
	return ""
}

func (g *goldenFile) checkSurvey(key string, jitter [2]int, gradNorm float64) string {
	if !finite(gradNorm) {
		return fmt.Sprintf("%s: non-finite stacked gradient norm", key)
	}
	want, ok := g.Survey[key][jitterKey(jitter)]
	if !ok {
		return fmt.Sprintf("%s jitter %s: no golden entry (run -update-golden)", key, jitterKey(jitter))
	}
	if got := bits(gradNorm); got != want {
		return fmt.Sprintf("%s jitter %s: got grad norm %s, golden %s", key, jitterKey(jitter), got, want)
	}
	return ""
}

// constructHash condenses what a construct produced: the halo schedule,
// the generated source and the compiled instruction count.
func constructHash(op *core.Operator) string {
	instrs := 0
	for _, k := range op.Kernels() {
		instrs += k.InstrsPerPoint()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d", op.Schedule.String(), op.CCode, instrs)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func (g *goldenFile) checkConstruct(key, hash string) string {
	want, ok := g.Construct[key]
	if !ok {
		return fmt.Sprintf("%s: no golden entry (run -update-golden)", key)
	}
	if hash != want {
		return fmt.Sprintf("%s: got hash %s, golden %s", key, hash, want)
	}
	return ""
}

// diff counts the entries of g that are missing from or differ in old.
func (g *goldenFile) diff(old *goldenFile) int {
	n := 0
	for k, m := range g.Stepping {
		for j, v := range m {
			if old.Stepping[k][j] != v {
				n++
			}
		}
	}
	for k, m := range g.Survey {
		for j, v := range m {
			if old.Survey[k][j] != v {
				n++
			}
		}
	}
	for k, v := range g.Construct {
		if old.Construct[k] != v {
			n++
		}
	}
	return n
}
