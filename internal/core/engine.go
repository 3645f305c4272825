package core

import (
	"fmt"
	"os"
	"strings"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/native"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// Execution engines. The native engine is the default: it re-lowers the
// bytecode program into fused bulk-row chains for peak per-rank
// throughput, falling back segment-wise to the bytecode row sweep and
// strip-wise to pure-Go primitives, so it runs on every host. The bytecode
// register VM is its lowering and stays selectable; the expression-tree
// interpreter remains as the reference implementation and escape hatch.
// All three produce bit-identical results — the differential and fuzz
// tests enforce it — so the choice is purely a performance/debugging one.
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

// EngineEnvVar overrides the default engine when Options.Engine is unset.
const EngineEnvVar = "DEVIGO_ENGINE"

// ExecKernel is the per-cluster execution contract every engine satisfies
// (runtime.ExecKernel). Exported here so the cross-engine conformance
// tests can inspect an operator's compiled kernels.
type ExecKernel = runtime.ExecKernel

// EngineNames lists the canonical engine names accepted by
// Options.Engine and $DEVIGO_ENGINE ("vm" and "interp" are aliases).
func EngineNames() []string { return []string{EngineBytecode, EngineInterpreter, EngineNative} }

// resolveEngine picks the execution engine: explicit Options.Engine wins,
// then the DEVIGO_ENGINE environment variable, then the native default.
// A value outside the vocabulary is a configuration error naming the bad
// value, where it came from, and what is accepted — matching the halo
// package's ParseMode style.
func resolveEngine(requested string) (string, error) {
	e := strings.ToLower(strings.TrimSpace(requested))
	source := "Options.Engine"
	if e == "" {
		e = strings.ToLower(strings.TrimSpace(os.Getenv(EngineEnvVar)))
		source = "$" + EngineEnvVar
	}
	switch e {
	case "", EngineNative:
		return EngineNative, nil
	case EngineBytecode, "vm":
		return EngineBytecode, nil
	case EngineInterpreter, "interp":
		return EngineInterpreter, nil
	}
	return "", fmt.Errorf("core: unknown engine %q in %s (valid: %s; aliases: vm, interp)",
		e, source, strings.Join(EngineNames(), ", "))
}

// compileStep compiles one optimized loop nest with the selected engine.
func compileStep(engine string, assigns []symbolic.Assignment, eqs []symbolic.Eq,
	radius []int, fields map[string]*field.Function) (ExecKernel, error) {
	switch engine {
	case EngineInterpreter:
		return runtime.CompileNest(assigns, eqs, radius, fields)
	case EngineNative:
		return native.CompileNest(assigns, eqs, radius, fields)
	default:
		return bytecode.CompileNest(assigns, eqs, radius, fields)
	}
}
