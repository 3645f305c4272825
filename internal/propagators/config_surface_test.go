package propagators

import (
	"reflect"
	"slices"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/perfmodel"
	"devigo/internal/runtime"
)

// settable lists the exported fields of a struct type in declaration
// order, an embedded struct's fields promoted under its name ("Exec.Workers"):
// every value a caller can set through one literal.
func settable(typ reflect.Type) []string {
	var out []string
	for _, f := range reflect.VisibleFields(typ) {
		if !f.IsExported() || f.Anonymous {
			continue
		}
		name := f.Name
		if len(f.Index) > 1 {
			name = typ.FieldByIndex(f.Index[:1]).Name + "." + name
		}
		out = append(out, name)
	}
	return out
}

// TestConfigSurfacePinned pins the configuration surface: a setting joins
// a config only when some caller chooses it, so a new field, or an old one
// coming back, must show up here.
func TestConfigSurfacePinned(t *testing.T) {
	exec := []string{"Exec.Workers", "Exec.TimeTile", "Exec.Engine", "Exec.Autotune"}
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{core.Options{}, []string{"Name", "Workers", "Engine", "TimeTile", "Cache"}},
		{core.ApplyOpts{}, []string{"TimeM", "TimeN", "Reverse", "Syms", "PostStep", "Autotune"}},
		{Config{}, []string{"Shape", "SpaceOrder", "NBL", "Velocity", "Decomp", "Rank"}},
		{Exec{}, []string{"Workers", "TimeTile", "Engine", "Autotune"}},
		{RunConfig{}, append([]string{"NT", "DT", "NReceivers", "ReceiverCoords", "SourceCoords", "Wavelet"}, exec...)},
		{GradientConfig{}, append([]string{"NT", "DT", "Wavelet", "SourceCoords", "NReceivers", "ReceiverCoords",
			"ObsData", "CheckpointInterval"}, exec...)},
		{ShotsConfig{}, []string{"Gradient", "Shots", "Workers", "Cache"}},
		{Shot{}, []string{"SourceCoords", "Wavelet", "ObsData"}},
	} {
		typ := reflect.TypeOf(tc.v)
		if got := settable(typ); !slices.Equal(got, tc.want) {
			t.Errorf("%s fields:\n got %q\nwant %q", typ, got, tc.want)
		}
	}
}

// TestTileHeightIsTheRuntimeConstant checks that every operator runs,
// reports and prices the one tile height, runtime.TileRows: its effective
// configuration, its cost-model profile and every candidate the
// autotuner ranks agree on it.
func TestTileHeightIsTheRuntimeConstant(t *testing.T) {
	for _, name := range ModelNames() {
		err := mpi.RunRanks(2, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, name, serialCfg([]int{20, 20}, 4), halo.ModeDiagonal, nil)
			if err != nil {
				return err
			}
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{Name: m.Name})
			if err != nil {
				return err
			}
			defer op.Close()
			prof := op.Profile()
			if got := op.Config().TileRows; got != runtime.TileRows {
				t.Errorf("%s rank %d: Config().TileRows = %d, want %d", name, c.Rank(), got, runtime.TileRows)
			}
			if prof.TileRows != runtime.TileRows {
				t.Errorf("%s rank %d: Profile().TileRows = %d, want %d", name, c.Rank(), prof.TileRows, runtime.TileRows)
			}
			cands := perfmodel.Candidates(prof)
			if len(cands) == 0 {
				t.Errorf("%s rank %d: no candidates", name, c.Rank())
			}
			for _, cand := range cands {
				if cand.TileRows != runtime.TileRows {
					t.Errorf("%s rank %d: candidate %v has tile height %d, want %d", name, c.Rank(), cand, cand.TileRows, runtime.TileRows)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
