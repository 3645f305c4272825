package native_test

import (
	"fmt"
	"testing"

	"devigo/internal/core"
	"devigo/internal/native"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
)

// TestAcousticSteadyRowCorrections pins what a row of the real acoustic
// kernel costs outside the handlers: between the rows of a steady run,
// at so 8 and 16, exactly one table word moves — the hoisted reciprocal's
// row. Every field the step reads shares the wavefield's row pitch, so its
// rows are named by their offset from the run's first row alone.
func TestAcousticSteadyRowCorrections(t *testing.T) {
	for _, so := range []int{8, 16} {
		t.Run(fmt.Sprintf("so%d", so), func(t *testing.T) {
			m, err := propagators.Build("acoustic", propagators.Config{Shape: []int{40, 40}, SpaceOrder: so, NBL: 8, Velocity: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
			if err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			if err := op.Apply(&core.ApplyOpts{TimeM: 0, TimeN: 1, Syms: map[string]float64{"dt": m.CriticalDt}}); err != nil {
				t.Fatal(err)
			}
			u := m.Fields["u"]
			box := runtime.Box{Lo: make([]int, len(u.LocalShape)), Hi: append([]int(nil), u.LocalShape...)}
			for _, k := range op.Kernels() {
				nk, ok := k.(*native.Kernel)
				if !ok {
					t.Fatalf("kernel is a %T, want *native.Kernel", k)
				}
				if s, _, _ := nk.Hoisted(); s == 0 {
					t.Fatal("the kernel hoists nothing: there is no steady run to check")
				}
				fields, stores, hoisted := nk.SteadySkews(box)
				if got := [3]int{fields, stores, hoisted}; got != [3]int{0, 0, 1} {
					t.Errorf("a steady row corrects %v (fields, stores, hoisted rows), want only the hoisted row", got)
				}
			}
		})
	}
}
