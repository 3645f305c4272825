package core

import (
	"fmt"
	"strings"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/iet"
	"devigo/internal/native"
	"devigo/internal/runtime"
)

// Execution engines. The native engine is the production one: it re-lowers
// the bytecode program into one run of fused links per kernel, executed by
// AVX handlers where the host has them and by a pure-Go twin elsewhere, so
// it runs on every host. The bytecode register VM is its lowering and the
// expression-tree interpreter the reference implementation; both stay
// selectable through Options.Engine as the oracles the differential and
// fuzz tests hold the native engine to, bit for bit.
const (
	// EngineBytecode compiles each cluster to flat register bytecode run
	// by a row-sweep VM (package bytecode).
	EngineBytecode = "bytecode"
	// EngineInterpreter walks a per-point stack program (package runtime).
	EngineInterpreter = "interpreter"
	// EngineNative executes fused opcode runs with specialized
	// bounds-check-hoisted inner loops (package native).
	EngineNative = "native"
)

// ExecKernel is the per-cluster execution contract every engine satisfies
// (runtime.ExecKernel). Exported here so the cross-engine conformance
// tests can inspect an operator's compiled kernels.
type ExecKernel = runtime.ExecKernel

// EngineNames lists the engine names Options.Engine accepts.
func EngineNames() []string { return []string{EngineBytecode, EngineInterpreter, EngineNative} }

// resolveEngine picks the execution engine Options.Engine names, the
// native engine when it names none. A value outside the vocabulary is a
// configuration error naming the bad value and what is accepted —
// matching the halo package's ParseMode style.
func resolveEngine(requested string) (string, error) {
	e := strings.ToLower(strings.TrimSpace(requested))
	switch e {
	case "":
		return EngineNative, nil
	case EngineNative, EngineBytecode, EngineInterpreter:
		return e, nil
	}
	return "", fmt.Errorf("core: unknown engine %q in Options.Engine (valid: %s)",
		e, strings.Join(EngineNames(), ", "))
}

// compileStep compiles one optimized loop nest with the selected engine.
// The native and bytecode compilers read the nest's keyed body.
func compileStep(engine string, n iet.LoopNest, fields map[string]*field.Function) (ExecKernel, error) {
	radius := n.Cluster.Radius
	switch engine {
	case EngineInterpreter:
		return runtime.CompileNest(n.Assigns, n.Exprs, radius, fields)
	case EngineNative:
		return native.CompileKeyed(n.Assigns, n.Exprs, n.Keyed, radius, fields)
	default:
		return bytecode.CompileKeyed(n.Assigns, n.Exprs, n.Keyed, radius, fields)
	}
}
