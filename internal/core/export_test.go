package core

import "devigo/internal/ir"

// ProgramSweep is a test-only view of one sweep of the flattened program.
type ProgramSweep struct {
	Halos   []ir.HaloReq
	Overlap bool
}

// Program exposes the flattened step program to the external tree≡program
// consistency test (package core_test imports the propagators, which this
// package cannot).
func (op *Operator) Program() (k int, preamble []ir.HaloReq, sweeps []ProgramSweep) {
	for _, sw := range op.prog.sweeps {
		sweeps = append(sweeps, ProgramSweep{Halos: sw.reqs, Overlap: sw.overlap})
	}
	return op.prog.k, op.prog.preamble.reqs, sweeps
}

// ApplyCIRE exposes the CIRE pass to the external construction tests.
var ApplyCIRE = applyCIRE

// SetMaxHoistBytes sets the hoisting budget (see maxHoistBytes) and
// returns the function that restores it.
func SetMaxHoistBytes(n int) (restore func()) {
	old := maxHoistBytes
	maxHoistBytes = n
	return func() { maxHoistBytes = old }
}

// BoundSyms exposes the kernel arguments the last Apply bound, one pool
// per kernel.
func (op *Operator) BoundSyms() [][]float64 { return op.bound }
