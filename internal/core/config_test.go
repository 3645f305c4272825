package core

import (
	"strings"
	"testing"
)

// Environment-driven configuration must reject bad values with errors
// that name the value, its provenance (the flag/field or the
// environment variable) and the accepted vocabulary — a silent fallback
// would run the wrong engine or policy without anyone noticing.

func TestResolveEngineVocabulary(t *testing.T) {
	t.Setenv(EngineEnvVar, "") // "" must reach the built-in default, whatever CI exports
	for in, want := range map[string]string{
		"":            EngineNative,
		"bytecode":    EngineBytecode,
		"vm":          EngineBytecode,
		"interpreter": EngineInterpreter,
		"interp":      EngineInterpreter,
		"native":      EngineNative,
		" Native ":    EngineNative,
		" Bytecode ":  EngineBytecode,
	} {
		got, err := resolveEngine(in)
		if err != nil || got != want {
			t.Errorf("resolveEngine(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestResolveEngineRejectsUnknown(t *testing.T) {
	_, err := resolveEngine("llvm")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, frag := range []string{`"llvm"`, "Options.Engine", EngineBytecode, EngineInterpreter, EngineNative} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("engine error %q lacks %q", err, frag)
		}
	}
}

func TestResolveEngineRejectsBadEnv(t *testing.T) {
	t.Setenv(EngineEnvVar, "turbo")
	_, err := resolveEngine("")
	if err == nil {
		t.Fatal("bad $" + EngineEnvVar + " accepted")
	}
	for _, frag := range []string{`"turbo"`, "$" + EngineEnvVar, EngineBytecode, EngineInterpreter, EngineNative} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("engine env error %q lacks %q", err, frag)
		}
	}
	// An explicit request must win over (and never blame) the environment.
	t.Setenv(EngineEnvVar, "nonsense")
	if got, err := resolveEngine(EngineInterpreter); err != nil || got != EngineInterpreter {
		t.Errorf("explicit engine over bad env: got %q, %v", got, err)
	}
}

func TestResolveAutotuneVocabulary(t *testing.T) {
	for in, want := range map[string]string{
		"":       AutotuneOff,
		"off":    AutotuneOff,
		"none":   AutotuneOff,
		"0":      AutotuneOff,
		"model":  AutotuneModel,
		"search": AutotuneSearch,
		"on":     AutotuneSearch,
		"auto":   AutotuneSearch,
	} {
		got, err := resolveAutotune(in)
		if err != nil || got != want {
			t.Errorf("resolveAutotune(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestResolveAutotuneRejectsBadEnv(t *testing.T) {
	t.Setenv(AutotuneEnvVar, "aggressive")
	_, err := resolveAutotune("")
	if err == nil {
		t.Fatal("bad $" + AutotuneEnvVar + " accepted")
	}
	for _, frag := range []string{`"aggressive"`, "$" + AutotuneEnvVar, AutotuneOff, AutotuneModel, AutotuneSearch} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("autotune env error %q lacks %q", err, frag)
		}
	}
	if _, err := resolveAutotune("always"); err == nil ||
		!strings.Contains(err.Error(), "ApplyOpts.Autotune") {
		t.Errorf("explicit bad policy should blame ApplyOpts.Autotune, got %v", err)
	}
}

func TestBadEngineEnvPropagatesFromNewOperator(t *testing.T) {
	t.Setenv(EngineEnvVar, "warp")
	_, err := NewOperator(nil, nil, nil, nil, &Options{Name: "cfgtest"})
	if err == nil || !strings.Contains(err.Error(), "$"+EngineEnvVar) {
		t.Fatalf("NewOperator with bad $%s: got %v, want a configuration error naming the variable",
			EngineEnvVar, err)
	}
}
