// Quickstart reproduces paper Listing 1 end to end: a 2-D heat diffusion
// operator built from symbolic math, first run serially, then — with the
// same user code — distributed over 4 in-process MPI ranks, printing the
// rank-local data views of paper Listings 2 and 3.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"devigo"
)

func buildAndRun(env *devigo.Env, report func(rank int, before, after string)) error {
	// Paper Listing 1, line by line.
	nx, ny := 4, 4
	nu := 0.5
	var g *devigo.Grid
	var err error
	if env != nil {
		g, err = env.NewGrid([]int{nx, ny}, []float64{2, 2}, nil)
	} else {
		g, err = devigo.NewGrid([]int{nx, ny}, []float64{2, 2})
	}
	if err != nil {
		return err
	}
	dx, dy := g.Spacing(0), g.Spacing(1)
	sigma := 0.25
	dt := sigma * dx * dy / nu

	u, err := devigo.NewTimeFunction("u", g, 2, 1)
	if err != nil {
		return err
	}
	// u.data[1:-1, 1:-1] = 1 — a global slice, transparently converted to
	// rank-local writes under DMP.
	if err := u.Data().SetSlice(0, []devigo.Slice{devigo.SliceRange(1, -1), devigo.SliceRange(1, -1)}, 1); err != nil {
		return err
	}
	before := u.Data().LocalString(0)

	stencil, err := devigo.Solve(devigo.Eq(u.Dt(), u.Laplace()), u.Forward())
	if err != nil {
		return err
	}
	op, err := devigo.NewOperator(g, devigo.Assign(u.Forward(), stencil))
	if err != nil {
		return err
	}
	if err := op.Apply(devigo.ApplyConfig{TimeM: 0, TimeN: 0, DT: dt}); err != nil {
		return err
	}
	rank := 0
	if env != nil {
		rank = env.Rank()
	}
	// A diverged run fails: every value this rank owns must be finite
	// (Gather without a communicator returns them).
	for _, v := range u.Data().Gather(nil, 0, 1) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("rank %d: u diverged: %v", rank, v)
		}
	}
	report(rank, before, u.Data().LocalString(1))
	if rank == 0 && env == nil {
		fmt.Println("--- generated code (paper Listing 11) ---")
		fmt.Println(op.GeneratedCode())
	}
	return nil
}

func main() {
	fmt.Println("=== serial run ===")
	err := buildAndRun(nil, func(rank int, before, after string) {
		fmt.Printf("u.data after slicing:\n%s\n", before)
		fmt.Printf("u.data after one operator application:\n%s\n", after)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== the same code on 4 MPI ranks (paper Listings 2 & 3) ===")
	var mu sync.Mutex
	outB := make([]string, 4)
	outA := make([]string, 4)
	err = devigo.RunDMP(devigo.DMPConfig{Ranks: 4, Mode: "basic"}, func(env *devigo.Env) error {
		return buildAndRun(env, func(rank int, before, after string) {
			mu.Lock()
			outB[rank], outA[rank] = before, after
			mu.Unlock()
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		fmt.Printf("[stdout:%d] after slice:\n%s\n", r, outB[r])
	}
	for r := 0; r < 4; r++ {
		fmt.Printf("[stdout:%d] after Operator:\n%s\n", r, outA[r])
	}
}
