package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A Markdown path in a comment resolves from the package directory or any
// parent up to the module root; a missing one is a violation, a URL is not
// a path.
func TestCheckMarkdownRefs(t *testing.T) {
	root := t.TempDir()
	write := func(rel, text string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("docs/A.md", "# A\n")
	write("pkg/NOTES.md", "# notes\n")
	write("pkg/p.go", `// Package p is described in docs/A.md and NOTES.md, not in
// https://example.com/B.md.
package p
`)
	write("pkg/p_test.go", `package p

// See DESIGN.md.
`)
	n, err := checkMarkdownRefs(filepath.Join(root, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("%d violations, want 1 (the test file's DESIGN.md)", n)
	}
}
