package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/propagators"
)

func sortedReqs(reqs []ir.HaloReq) []string {
	out := make([]string, len(reqs))
	for i, h := range reqs {
		out[i] = fmt.Sprintf("%s@%d", h.Field, h.TimeOff)
	}
	sort.Strings(out)
	return out
}

// TestTreeIsTheProgram enforces that the lowered IET is what runs: for
// every propagator × halo mode × exchange interval, the exchanges named by
// the HaloUpdateCall / OverlapSection.Update / TimeTile.Update nodes of
// op.Tree are exactly the exchanges the flattened program performs — before
// the loop and per tile — nests overlap exactly where the tree says so,
// and the generated source names the time-tiling plan's hoisted
// parameters in its preamble update.
func TestTreeIsTheProgram(t *testing.T) {
	shape := []int{64, 64}
	for _, model := range []string{"acoustic", "elastic", "tti", "viscoelastic"} {
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			for _, k := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/k%d", model, mode, k)
				err := mpi.RunRanks(2, func(c *mpi.Comm) error {
					m, ctx, err := propagators.OnRank(c, model, propagators.Config{
						Shape: shape, SpaceOrder: 8, NBL: 4, Velocity: 1.5}, mode, []int{2, 1})
					if err != nil {
						return err
					}
					op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{Name: m.Name, TimeTile: k})
					if err != nil {
						return err
					}
					if c.Rank() != 0 || (k > 1 && op.TilePlan() == nil) {
						return nil // untileable (CIRE scratch): covered at k=1
					}
					checkTreeIsProgram(t, name, op)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func checkTreeIsProgram(t *testing.T, name string, op *core.Operator) {
	t.Helper()
	var treePre, treeLoop []ir.HaloReq
	treeK, overlapped := 1, 0
	for _, n := range op.Tree.Body {
		switch v := n.(type) {
		case iet.HaloUpdateCall:
			treePre = append(treePre, v.Fields...)
		case iet.TimeLoop:
			iet.Walk(v, func(n iet.Node) {
				if u, ok := n.(iet.HaloUpdateCall); ok {
					treeLoop = append(treeLoop, u.Fields...)
				}
				if _, ok := n.(iet.OverlapSection); ok {
					overlapped++
				}
			})
		case iet.TimeTile:
			treeK = v.K
			treeLoop = append(treeLoop, v.Update.Fields...)
			if v.Update.Async {
				overlapped++
			}
		}
	}
	k, pre, sweeps := op.Program()
	var progLoop []ir.HaloReq
	progOverlapped := 0
	for _, sw := range sweeps {
		progLoop = append(progLoop, sw.Halos...)
		if sw.Overlap {
			progOverlapped++
		}
	}
	if k != treeK || k != op.TimeTile() {
		t.Errorf("%s: program tile length %d, tree %d, operator %d", name, k, treeK, op.TimeTile())
	}
	if len(sweeps) != len(op.Schedule.Steps) {
		t.Errorf("%s: %d sweeps for %d schedule steps", name, len(sweeps), len(op.Schedule.Steps))
	}
	if got, want := sortedReqs(pre), sortedReqs(treePre); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: program preamble %v, tree names %v", name, got, want)
	}
	if got, want := sortedReqs(progLoop), sortedReqs(treeLoop); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Errorf("%s: program exchanges per tile %v, tree names %v", name, got, want)
	}
	if progOverlapped != overlapped {
		t.Errorf("%s: program overlaps %d sweeps, tree %d", name, progOverlapped, overlapped)
	}
	plan := op.TilePlan()
	if plan == nil || len(plan.Hoisted) == 0 {
		return
	}
	// The preamble update is the haloupdate call ahead of the tile loop; it
	// must name every hoisted parameter.
	head, _, _ := strings.Cut(op.CCode, "for (int tile")
	call := ""
	if i := strings.LastIndex(head, "haloupdate_"); i >= 0 {
		call, _, _ = strings.Cut(head[i:], "\n")
	}
	for _, h := range plan.Hoisted {
		if !strings.Contains(call, h.Field) {
			t.Errorf("%s: hoisted %s missing from the source's preamble update %q", name, h.Field, call)
		}
	}
}
