// devigo-doccheck is the documentation CI gate. It has two checks, both
// reporting violations to stderr and failing through the exit status:
//
//	devigo-doccheck -links .
//
// walks every Markdown file under the root (skipping .git and vendored
// trees) and verifies that relative links resolve to existing files or
// directories — external http(s)/mailto links and pure #anchors are
// skipped.
//
//	devigo-doccheck -pkgs internal/core,internal/perfmodel,...
//
// parses each listed package directory (non-test files) and requires a
// doc comment on every exported identifier: functions, methods with
// exported names, and type/const/var specs (a doc comment on the
// enclosing grouped declaration covers its specs, the standard Go
// convention for const blocks). It also requires every Markdown path a
// comment of the package names (docs/ARCHITECTURE.md, README.md; test
// files included) to name an existing file, relative to the package
// directory or to one of its parents up to the module root.
//
// Both checks may be combined in one invocation; CI runs them over the
// repository and the packages this project maintains documentation
// guarantees for.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	links := flag.String("links", "", "root directory whose Markdown files get link-checked")
	pkgs := flag.String("pkgs", "", "comma-separated package directories whose exported identifiers need doc comments")
	flag.Parse()
	if *links == "" && *pkgs == "" {
		fmt.Fprintln(os.Stderr, "devigo-doccheck: nothing to do (want -links and/or -pkgs)")
		os.Exit(2)
	}
	bad := 0
	if *links != "" {
		n, err := checkLinks(*links)
		if err != nil {
			fmt.Fprintln(os.Stderr, "devigo-doccheck:", err)
			os.Exit(2)
		}
		bad += n
	}
	if *pkgs != "" {
		for _, dir := range strings.Split(*pkgs, ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			n, err := checkDocs(dir)
			if err == nil {
				bad += n
				n, err = checkMarkdownRefs(dir)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "devigo-doccheck:", err)
				os.Exit(2)
			}
			bad += n
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "devigo-doccheck: %d violation(s)\n", bad)
		os.Exit(1)
	}
}

// mdLink matches inline Markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// fencedBlock matches ``` fenced code blocks, which may contain
// illustrative link syntax that is not an actual hyperlink.
var fencedBlock = regexp.MustCompile("(?s)```.*?```")

// checkLinks verifies every relative Markdown link under root resolves.
func checkLinks(root string) (int, error) {
	bad := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "vendor" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := fencedBlock.ReplaceAllString(string(data), "")
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexAny(target, "#?"); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			// Root-absolute links (GitHub's /README.md style) resolve
			// from the scan root; relative links from the file's dir.
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if strings.HasPrefix(target, "/") {
				resolved = filepath.Join(root, filepath.FromSlash(target))
			}
			// Links that climb out of the scanned tree (GitHub-relative
			// URLs like the CI badge's ../../actions/...) are not
			// intra-repo links; skip them.
			if rel, err := filepath.Rel(root, resolved); err != nil || strings.HasPrefix(rel, "..") {
				continue
			}
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(os.Stderr, "%s: broken link %q\n", path, m[1])
				bad++
			}
		}
		return nil
	})
	return bad, err
}

// receiverExported reports whether a method receiver's base type name is
// exported (unwrapping pointers and generic instantiations).
func receiverExported(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return false
		}
	}
}

// checkDocs requires a doc comment on every exported identifier of the
// package in dir (test files excluded).
func checkDocs(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", dir, err)
	}
	bad := 0
	complain := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: exported %s %s has no doc comment\n", p.Filename, p.Line, what, name)
		bad++
	}
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					what := "function"
					if d.Recv != nil {
						// Methods are part of the documented surface only
						// when their receiver type is itself exported.
						if !receiverExported(d.Recv) {
							continue
						}
						what = "method"
					}
					complain(d.Pos(), what, d.Name.Name)
				case *ast.GenDecl:
					if d.Doc != nil {
						// A documented grouped declaration covers its
						// specs (the const-block convention).
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								complain(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									complain(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad, nil
}

// mdRef matches a Markdown file path named in prose: README.md,
// docs/ARCHITECTURE.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkMarkdownRefs requires every Markdown path named in a comment of
// the Go files in dir, test files included, to name an existing file
// relative to dir or to one of its parents up to the module root (the
// directory holding go.mod). URLs are skipped.
func checkMarkdownRefs(dir string) (int, error) {
	roots, err := searchRoots(dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", dir, err)
	}
	bad := 0
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					for _, ref := range mdRef.FindAllString(c.Text, -1) {
						if strings.Contains(ref, "//") || resolves(roots, strings.TrimPrefix(ref, "/")) {
							continue
						}
						fmt.Fprintf(os.Stderr, "%s: comment names missing file %q\n", fset.Position(c.Pos()), ref)
						bad++
					}
				}
			}
		}
	}
	return bad, nil
}

// searchRoots lists dir and its parents up to the module root, nearest
// first (dir alone when no go.mod is found above it).
func searchRoots(dir string) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var roots []string
	for d := abs; ; d = filepath.Dir(d) {
		roots = append(roots, d)
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return roots, nil
		}
		if filepath.Dir(d) == d {
			return roots[:1], nil
		}
	}
}

// resolves reports whether ref names an existing file under any root.
func resolves(roots []string, ref string) bool {
	for _, r := range roots {
		if fi, err := os.Stat(filepath.Join(r, filepath.FromSlash(ref))); err == nil && !fi.IsDir() {
			return true
		}
	}
	return false
}
