// Elastic demonstrates the first-order velocity-stress system on a fully
// staggered grid (paper Section IV-B3): 9 coupled updates over 22 fields,
// split by the compiler into a velocity cluster and a stress cluster with
// a halo exchange of the fresh velocities in between. The example prints
// the compiler's schedule tree (paper Listing 4) and the per-cluster
// structure, then propagates a wave and reports receiver traces.
package main

import (
	"fmt"
	"log"

	"devigo/internal/ir"
	"devigo/internal/propagators"
)

func main() {
	m, err := propagators.Elastic(propagators.Config{
		Shape:      []int{32, 32},
		SpaceOrder: 8,
		NBL:        8,
		Velocity:   2.0,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isotropic elastic, 2-D, SDO %d: %d update equations, %d-field working set\n",
		m.SpaceOrder, len(m.Eqs), m.WorkingSetFields)

	clusters, err := ir.Lower(m.Eqs, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lowered to %d clusters:\n", len(clusters))
	for i, c := range clusters {
		var writes []string
		for _, e := range c.Eqs {
			writes = append(writes, e.LHS.String())
		}
		fmt.Printf("  cluster %d: %d eqs, %d flops/point, radius %v\n",
			i, len(c.Eqs), c.FlopsPerPoint(), c.Radius)
		for _, w := range writes {
			fmt.Printf("    %s\n", w)
		}
		for f, offs := range c.HaloReads {
			for off := range offs {
				fmt.Printf("    needs halo: %s @ t%+d\n", f, off)
			}
		}
	}

	res, err := propagators.Run(m, nil, propagators.RunConfig{NT: 120, NReceivers: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %d steps (dt=%.5f): field norm %.6e, %.1f Mpts/s\n",
		res.NT, res.DT, res.Norm, res.Perf.GPtss()*1e3)
	fmt.Println("receiver traces (last 5 samples):")
	for it := len(res.Receivers) - 5; it < len(res.Receivers); it++ {
		fmt.Printf("  t=%3d:", it)
		for _, v := range res.Receivers[it] {
			fmt.Printf(" %12.4e", v)
		}
		fmt.Println()
	}
	if err := res.CheckFinite(m.Name); err != nil {
		log.Fatal(err)
	}
}
