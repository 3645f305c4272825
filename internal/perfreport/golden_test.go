package perfreport

import (
	"flag"
	"os"
	"strings"
	"testing"

	"devigo/internal/perfmodel"
)

var updateTables = flag.Bool("update-tables", false, "rewrite testdata/modeled_tables.txt from the current model")

const tablesGolden = "testdata/modeled_tables.txt"

// renderModeledTables renders every modeled table devigo-bench prints:
// the roofline, strong scaling of the four models at every paper space
// order on both machines, weak scaling and the mode selector.
func renderModeledTables(t *testing.T) string {
	t.Helper()
	models := []string{"acoustic", "elastic", "tti", "viscoelastic"}
	machines := []perfmodel.Machine{perfmodel.Archer2Node(), perfmodel.TursaA100()}
	var b strings.Builder
	add := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	for _, so := range PaperSpaceOrders {
		add(RooflineReport(so))
		for _, m := range machines {
			for _, model := range models {
				tbl, err := StrongScaling(model, so, m)
				if err != nil {
					t.Fatal(err)
				}
				add(tbl.Format(), nil)
			}
		}
		add(WeakScalingReport(models, so, machines))
		add(ModeSelectionReport(so))
	}
	return b.String()
}

// The modeled tables are pinned byte for byte: a change to the cost model
// or to either machine's parameter set that moves a printed number fails
// here. A deliberate recalibration regenerates the file with
// `go test ./internal/perfreport -run TestModeledTablesGolden -args -update-tables`.
func TestModeledTablesGolden(t *testing.T) {
	got := renderModeledTables(t)
	if *updateTables {
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", tablesGolden, i+1, g, w)
		}
	}
}

// Every strong-scaling table ends in one efficiency row labelled "eff%".
func TestScalingTableEffLabel(t *testing.T) {
	tbl := &ScalingTable{Model: "acoustic", SO: 8, Arch: "cpu", Nodes: []int{1, 2},
		Rows: map[string][]float64{"basic": {1, 2}}, ModeOrder: []string{"basic"},
		EffPct: []float64{100, 92}}
	lines := strings.Split(strings.TrimSuffix(tbl.Format(), "\n"), "\n")
	if got, want := lines[len(lines)-1], "eff%       100%      92%"; got != want {
		t.Errorf("efficiency row = %q, want %q", got, want)
	}
}
