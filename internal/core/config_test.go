package core

import (
	"strings"
	"testing"
)

// Configuration must reject bad values with errors that name the value,
// its provenance (the flag/field or the environment variable) and the
// accepted vocabulary — a silent fallback would run the wrong engine or
// policy without anyone noticing.

func TestResolveEngineVocabulary(t *testing.T) {
	for in, want := range map[string]string{
		"":            EngineNative,
		"bytecode":    EngineBytecode,
		"interpreter": EngineInterpreter,
		"native":      EngineNative,
		" Native ":    EngineNative,
		" Bytecode ":  EngineBytecode,
	} {
		got, err := resolveEngine(in)
		if err != nil || got != want {
			t.Errorf("resolveEngine(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, alias := range []string{"vm", "interp"} {
		if got, err := resolveEngine(alias); err == nil {
			t.Errorf("resolveEngine(%q) = %q: the engine aliases are gone", alias, got)
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

func TestResolveAutotuneVocabulary(t *testing.T) {
	for in, want := range map[string]string{
		"":         AutotuneOff,
		"off":      AutotuneOff,
		"search":   AutotuneSearch,
		" Search ": AutotuneSearch,
		"\toff\n":  AutotuneOff,
	} {
		got, err := resolveAutotune(in)
		if err != nil || got != want {
			t.Errorf("resolveAutotune(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, gone := range []string{"none", "0", "on", "auto", "model", "MODEL"} {
		got, err := resolveAutotune(gone)
		if err == nil {
			t.Errorf("resolveAutotune(%q) = %q: the autotune aliases and the model policy are gone", gone, got)
			continue
		}
		if !strings.Contains(err.Error(), "(valid: off, search)") {
			t.Errorf("resolveAutotune(%q): error %q does not list off, search", gone, err)
		}
	}
}

func TestResolveAutotuneRejectsBadEnv(t *testing.T) {
	t.Setenv(AutotuneEnvVar, "aggressive")
	_, err := resolveAutotune("")
	if err == nil {
		t.Fatal("bad $" + AutotuneEnvVar + " accepted")
	}
	for _, frag := range []string{`"aggressive"`, "$" + AutotuneEnvVar, "(valid: off, search)"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("autotune env error %q lacks %q", err, frag)
		}
	}
	t.Setenv(AutotuneEnvVar, "MODEL")
	if _, err := resolveAutotune(""); err == nil ||
		!strings.Contains(err.Error(), `"model" in $`+AutotuneEnvVar+" (valid: off, search)") {
		t.Errorf("$%s=MODEL: err = %v, want the unknown-policy error listing off, search", AutotuneEnvVar, err)
	}
	if _, err := resolveAutotune("always"); err == nil ||
		!strings.Contains(err.Error(), "ApplyOpts.Autotune") {
		t.Errorf("explicit bad policy should blame ApplyOpts.Autotune, got %v", err)
	}
}
