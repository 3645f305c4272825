package devigo

// TestRepoRules holds the repository to its own rules on every
// go test ./...: designs the module removed stay removed, relative
// Markdown links resolve, exported identifiers carry doc comments, and
// every test name a quoted go test command selects exists. CI's lint job
// runs it by name: go test -count=1 -run '^TestRepoRules$' .

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// rulesFile names this file: the patterns below would match themselves.
const rulesFile = "rules_test.go"

// repoFile is one text file of the repository, or one line standing in
// for it.
type repoFile struct {
	path string // slash-separated, relative to the module root
	text string
}

// A check forbids lines matching re in the files paths selects.
type check struct {
	re string // Go regexp, one line at a time; (?i) makes it case-insensitive
	// paths are git pathspecs: a plain entry names a file or a directory,
	// * crosses /, "." is every file and ":!" excludes.
	paths []string
	// unless exempts a hit, formatted path:line:text, that it matches.
	unless string
}

// A rule keeps one removed design out of the repository.
type rule struct {
	name   string
	checks []check
	// count > 0 makes it a count rule: its checks must match exactly
	// count lines, no more and no fewer.
	count  int
	why    string
	sample repoFile // a violation the rule must flag
}

// goSrc selects non-test Go files; propagatorsSrc those of
// internal/propagators.
var (
	goSrc          = []string{"*.go", ":!*_test.go"}
	propagatorsSrc = []string{"internal/propagators/*.go", ":!*_test.go"}
)

var rules = []rule{{
	name: "one owner each for rank failure and rank set-up",
	checks: []check{
		{re: `panic\(err\)`, paths: []string{"cmd/*.go", "examples/*.go", "devigo.go"}},
		{re: `mpi\.CartCreate\(`, paths: []string{"*.go", ":!*_test.go", ":!internal/mpi/", ":!internal/core/", ":!bench/"}},
	},
	why:    "return the error from the rank body (mpi.RunRanks) instead of panic(err); build the context with core.NewContext, the one caller of CartCreate outside mpi (bench/ keeps its frozen copy)",
	sample: repoFile{"examples/quickstart/main.go", "\t\tpanic(err)"},
}, {
	name: "a run reduces once",
	checks: []check{
		{re: `Interpolate\(`, paths: propagatorsSrc, unless: `, nil\)`},
		{re: `commOf`, paths: propagatorsSrc},
		{re: `(?i)allgather|func \(c \*Comm\) Barrier|SendRecv`, paths: []string{"internal/mpi/*.go", "internal/propagators/*.go", ":!*_test.go"}},
	},
	why:    "sample sparse points rank-locally (Interpolate with a nil comm) and reduce once per run; no per-step collective in a PostStep hook, and Allreduce is gather-fold-broadcast",
	sample: repoFile{"internal/propagators/run.go", "\tvals := rec.Interpolate(u, t, comm)"},
}, {
	name:   "one halo exchanger",
	checks: []check{{re: `^func \([^)]+\) Exchange\(`, paths: []string{"internal/halo/*.go", ":!*_test.go"}}},
	count:  1,
	why:    "a mode is a table constructor (halo.messages), not a type: halo.Exchanger has the one Exchange method",
	sample: repoFile{"internal/halo/diag.go", "func (d *diagExchanger) Exchange(t int) {"},
}, {
	name:   "one receive contract",
	checks: []check{{re: `\) Recv\(src, tag int\) \(\[\]float32`, paths: []string{"internal/mpi"}}},
	why:    "Transport.Recv copies into the caller's buffer, as MPI_Recv does, and the transport recycles its payloads: take buf, return the count",
	sample: repoFile{"internal/mpi/inproc.go", "func (t *inproc) Recv(src, tag int) ([]float32, error) {"},
}, {
	name:   "a receive completes at Finish",
	checks: []check{{re: `TryRecv|Irecv|mpi\.Request|Progress func\(\)|\) Progress\(|prodOpts`, paths: []string{"*.go", ":!*_test.go", ":!bench/"}}},
	why:    "both transports deliver without the receiver: receive in halo.Exchanger.Finish with Comm.Recv; no Irecv / TryRecv / progress hook (bench/ keeps its frozen files)",
	sample: repoFile{"internal/halo/halo.go", "\treq := c.Irecv(src, tag, buf)"},
}, {
	name: "one message per neighbour per exchange",
	checks: []check{
		{re: `SharedMessages`, paths: []string{"*.go"}},
		{re: `map\[ir\.HaloReq\]`, paths: []string{"internal/core/*.go", ":!*_test.go"}},
	},
	why:    "one halo.Exchanger per exchange point (halo.NewParts), priced as one message per neighbour on every host; no SharedMessages switch, no per-requirement exchanger table",
	sample: repoFile{"internal/perfmodel/host.go", "\tSharedMessages bool"},
}, {
	name:   "devigo-bench executes nothing",
	checks: []check{{re: `BENCH_autotune|HostFingerprint|runAutotuneExp`, paths: []string{".", ":!bench/", ":!CHANGES.md", ":!ROADMAP.md"}}},
	why:    "devigo-bench renders modeled tables; the tuner's sweep is TestSearchAgainstExhaustiveSweep (only the files that record the decision may name the old report)",
	sample: repoFile{"cmd/devigo-bench/main.go", "\tcase \"autotune\": runAutotuneExp()"},
}, {
	name:   "models have one builder",
	checks: []check{{re: `field\.New(Time)?Function\(`, paths: propagatorsSrc, unless: `^internal/propagators/builder\.go:|^internal/propagators/gradient\.go:.*"grad"`}},
	why:    "allocate model fields through the builder (timeField / param / share); the imaging kernel's grad field is the only other allocation",
	sample: repoFile{"internal/propagators/acoustic.go", "\tu, err := field.NewTimeFunction(\"u\", g, so, 2, fc)"},
}, {
	name:   "one executor per link form",
	checks: []check{{re: `vtaps|pTaps`, paths: []string{"internal/native/*", ":!internal/native/*_test.go"}}},
	why:    "internal/native has one executor per form (the generated run handlers), not a tap primitive",
	sample: repoFile{"internal/native/exec.go", "func vtaps(dst, src []float32) {"},
}, {
	name:   "one run per native kernel, no engine switch",
	checks: []check{{re: `ShapeVM|DEVIGO_ENGINE|\bSweep\(`, paths: goSrc}},
	why:    "bytecode.ExtractSegments lowers every instruction to links, so a native kernel is one run; engines are chosen by Options.Engine only",
	sample: repoFile{"internal/core/engine.go", "\tif os.Getenv(\"DEVIGO_ENGINE\") != \"\" {"},
}, {
	name:   "the operator cache shares schedules, never kernels or tuning",
	checks: []check{{re: `\bRebind\(|DEVIGO_OPCACHE|-cached"`, paths: []string{"*.go"}}},
	why:    "opcache holds core.frontEnd only; kernels and tune choices are per operator",
	sample: repoFile{"internal/opcache/cache.go", "\tk.Rebind(fields)"},
}, {
	name:   "one algorithm for FD weights",
	checks: []check{{re: `gaussSolve`, paths: []string{"internal/symbolic/*", ":!internal/symbolic/*_test.go"}}},
	why:    "internal/symbolic computes FD weights one way (Fornberg's recurrence, memoised); the Taylor-table solve is the oracle in fd_test.go",
	sample: repoFile{"internal/symbolic/fd.go", "\tw := gaussSolve(a, b)"},
}, {
	name:   "symbolic passes key subtrees, they do not re-render them",
	checks: []check{{re: `\.String\(\)`, paths: []string{"internal/symbolic/cse.go", "internal/symbolic/factor.go", "internal/symbolic/collect.go"}}},
	why:    "key subtrees with symbolic.KeyOf / the keyed transform instead of String()",
	sample: repoFile{"internal/symbolic/cse.go", "\tkey := e.String()"},
}, {
	name:   "the pool runs one static partition",
	checks: []check{{re: `\bSteal\b|StealCount|steal bool|cursors|func \(op \*Operator\) Reconfigure`, paths: []string{"internal/*.go", ":!*_test.go"}}},
	why:    "runtime.Pool has one schedule (static block-cyclic); storage grows only in NewOperator",
	sample: repoFile{"internal/runtime/pool.go", "\tsteal bool"},
}, {
	name:   "RunShots owns the shot fan-out",
	checks: []check{{re: `devigo/internal/shotsched|DEVIGO_SHOT_WORKERS`, paths: []string{"*.go"}}},
	why:    "RunShots runs its own in-order fan-out (propagators.inOrder); ShotsConfig.Workers is the only shot-count setting",
	sample: repoFile{"internal/propagators/shots.go", "\t\"devigo/internal/shotsched\""},
}, {
	name:   "a survey has no worlds",
	checks: []check{{re: `shotWorld|\bRanks\b|halo\.|mpi\.`, paths: []string{"internal/propagators/shots.go"}}},
	why:    "RunShots solves each shot serially on its worker's solver; it stands up no MPI world",
	sample: repoFile{"internal/propagators/shots.go", "\tw := shotWorld(cfg.Ranks)"},
}, {
	name:   "the checkpoint store owns its schedule",
	checks: []check{{re: `TailLevel|SaveIfDue|SnapshotAtOrBefore|PruneLevels|HasLevel|RecordLevel|LoadLevel|ensureLevels`, paths: []string{"*.go", ":!internal/checkpoint/"}}},
	why:    "the forward pass hands every state to checkpoint.Store.Keep and the reverse sweep asks Store.Load for levels; no other package computes a tail, picks a snapshot, prunes, or records or loads a level",
	sample: repoFile{"internal/propagators/gradient.go", "\t\tstore.RecordLevel(s - 1)"},
}, {
	name:   "benchmark numbers have one home",
	checks: []check{{re: `(?i)observatory|BENCH_history`, paths: []string{".", ":!CHANGES.md", ":!ROADMAP.md"}}},
	why:    "benchmark numbers live in CHANGES.md tables made from bench/run.sh pairs (docs/OBSERVABILITY.md)",
	sample: repoFile{"docs/OBSERVABILITY.md", "The Observatory keeps every run."},
}}

func TestRepoRules(t *testing.T) {
	files := repoFiles(t)
	t.Run("forbidden", func(t *testing.T) {
		for _, r := range rules {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				found := r.matches(files)
				for _, h := range r.verdict(found) {
					t.Errorf("%s\n\t%s", h, r.why)
				}
				// The sample goes through the same matcher, beside the
				// tree's own matches for a count rule's sake.
				if !flagged(r.verdict(slices.Concat(found, r.matches([]repoFile{r.sample}))), r.sample.path) {
					t.Errorf("the rule does not flag its sample %q on %s: its pattern or paths have rotted", r.sample.text, r.sample.path)
				}
			})
		}
	})
	t.Run("links", func(t *testing.T) {
		for _, bad := range brokenLinks(files) {
			t.Error(bad)
		}
	})
	t.Run("doc comments", func(t *testing.T) {
		for _, bad := range docViolations(t, files) {
			t.Error(bad)
		}
	})
	t.Run("selected names", func(t *testing.T) {
		for _, src := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
			for _, bad := range missingNames(t, files, src) {
				t.Error(bad)
			}
		}
	})
}

// TestRuleMatcher pins the matcher's git semantics on synthetic files.
func TestRuleMatcher(t *testing.T) {
	for _, tc := range []struct {
		specs []string
		path  string
		want  bool
	}{
		{[]string{"internal/*.go"}, "internal/core/x.go", true}, // * crosses /
		{[]string{"internal/mpi"}, "internal/mpi/inproc.go", true},
		{[]string{"internal/mpi"}, "internal/mpix/a.go", false},
		{[]string{"."}, "README.md", true},
		{[]string{".", ":!bench/"}, "bench/run.sh", false},
		{[]string{"*.go", ":!*_test.go"}, "internal/halo/halo_test.go", false},
		{[]string{".", ":!CHANGES.md"}, "CHANGES.md", false},
		{[]string{".", ":!CHANGES.md"}, "docs/CHANGES.md", true},
	} {
		if got := covered(tc.specs, tc.path); got != tc.want {
			t.Errorf("covered(%q, %q) = %v, want %v", tc.specs, tc.path, got, tc.want)
		}
	}
	one := rule{count: 1, checks: []check{{re: `^func \(x\) F\(`, paths: []string{"p"}}}}
	for n := 0; n <= 2; n++ {
		files := []repoFile{{"p/a.go", strings.Repeat("func (x) F() {}\n", n)}}
		if got := len(one.verdict(one.matches(files))) == 0; got != (n == 1) {
			t.Errorf("count rule passes %v on %d matches", got, n)
		}
	}
	// A Markdown path in a comment resolves from the package directory
	// or a parent; a URL is not a path.
	comment := "// Described in docs/ARCHITECTURE.md and README.md, not in\n// https://example.com/B.md. See DESIGN.md."
	if got := missingMarkdown("internal/core", comment); !slices.Equal(got, []string{"DESIGN.md"}) {
		t.Errorf("missingMarkdown = %q, want [DESIGN.md]", got)
	}
	if h := (rule{checks: []check{{re: "x", paths: []string{"*"}}}}).matches([]repoFile{{rulesFile, "x"}}); len(h) != 0 {
		t.Errorf("%s is exempt from its own patterns, got %q", rulesFile, h)
	}
}

// repoFiles reads every text file of the repository: it skips .git,
// what .gitignore names (build outputs, benchmark runs, test binaries)
// and, as git grep does, files holding a NUL byte.
func repoFiles(t *testing.T) []repoFile {
	t.Helper()
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	var files []repoFile
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if p == ".git" || gitIgnored(string(ignore), p, d.IsDir()) {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if bytes.IndexByte(data[:min(len(data), 8000)], 0) < 0 {
			files = append(files, repoFile{p, string(data)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// gitIgnored reports whether a .gitignore's patterns name p, for the
// forms this repository's .gitignore uses: /anchored, dir/ and basename globs.
func gitIgnored(ignore, p string, dir bool) bool {
	for _, pat := range strings.Split(ignore, "\n") {
		pat = strings.TrimSpace(pat)
		if pat == "" || strings.HasPrefix(pat, "#") {
			continue
		}
		if strings.HasSuffix(pat, "/") {
			if !dir {
				continue
			}
			pat = strings.TrimSuffix(pat, "/")
		}
		name := path.Base(p)
		if strings.HasPrefix(pat, "/") {
			name, pat = p, pat[1:]
		}
		if ok, _ := path.Match(pat, name); ok {
			return true
		}
	}
	return false
}

// covered reports whether a list of git pathspecs selects p.
func covered(specs []string, p string) bool {
	in := false
	for _, s := range specs {
		if ex, ok := strings.CutPrefix(s, ":!"); ok {
			if specMatch(ex, p) {
				return false
			}
		} else if specMatch(s, p) {
			in = true
		}
	}
	return in
}

// specMatch matches one pathspec: "." is everything, a spec without * a
// file or directory prefix, and a spec with * a glob whose * crosses /.
func specMatch(spec, p string) bool {
	if spec == "." {
		return true
	}
	parts := strings.Split(spec, "*")
	if len(parts) == 1 {
		spec = strings.TrimSuffix(spec, "/")
		return p == spec || strings.HasPrefix(p, spec+"/")
	}
	rest, ok := strings.CutPrefix(p, parts[0])
	if !ok {
		return false
	}
	for _, mid := range parts[1 : len(parts)-1] {
		i := strings.Index(rest, mid)
		if i < 0 {
			return false
		}
		rest = rest[i+len(mid):]
	}
	return strings.HasSuffix(rest, parts[len(parts)-1])
}

// matches returns the lines the rule's checks match in files, as
// path:line:text.
func (r rule) matches(files []repoFile) []string {
	var out []string
	for _, c := range r.checks {
		re := regexp.MustCompile(c.re)
		var unless *regexp.Regexp
		if c.unless != "" {
			unless = regexp.MustCompile(c.unless)
		}
		for _, f := range files {
			if f.path == rulesFile || !covered(c.paths, f.path) {
				continue
			}
			for i, line := range strings.Split(f.text, "\n") {
				if !re.MatchString(line) {
					continue
				}
				if hit := fmt.Sprintf("%s:%d:%s", f.path, i+1, line); unless == nil || !unless.MatchString(hit) {
					out = append(out, hit)
				}
			}
		}
	}
	return out
}

// verdict returns the violations among a rule's matches: all of them,
// or for a count rule none when their number is its count and all of
// them, headed by that number, when it is not.
func (r rule) verdict(matches []string) []string {
	if r.count == 0 {
		return matches
	}
	if len(matches) == r.count {
		return nil
	}
	return append([]string{fmt.Sprintf("%d matching lines, want %d", len(matches), r.count)}, matches...)
}

// flagged reports whether a hit lies on p.
func flagged(hits []string, p string) bool {
	for _, h := range hits {
		if strings.HasPrefix(h, p+":") {
			return true
		}
	}
	return false
}

// mdLink matches inline Markdown links and images, [text](target);
// fencedBlock a ``` block, whose link syntax is illustration.
var (
	mdLink      = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
)

// brokenLinks lists the relative Markdown links that name no file or
// directory. Root-absolute links resolve from the module root; external
// links, pure anchors and links that climb out of the repository (the CI
// badge's ../../actions/...) are not checked.
func brokenLinks(files []repoFile) []string {
	var bad []string
	for _, f := range files {
		if !strings.HasSuffix(strings.ToLower(f.path), ".md") {
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(fencedBlock.ReplaceAllString(f.text, ""), -1) {
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
			resolved := path.Join(path.Dir(f.path), target)
			if strings.HasPrefix(target, "/") {
				resolved = path.Clean(target[1:])
			}
			if resolved == ".." || strings.HasPrefix(resolved, "../") {
				continue
			}
			if _, err := os.Stat(resolved); err != nil {
				bad = append(bad, fmt.Sprintf("%s: broken link %q", f.path, m[1]))
			}
		}
	}
	return bad
}

// mdRef matches a Markdown file path named in prose: README.md,
// docs/ARCHITECTURE.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// docViolations checks the packages at the root, internal/* and cmd/*:
// every exported identifier of their non-test files has a doc comment
// (a documented grouped declaration covers its specs), and every
// Markdown path a comment of theirs names, test files included, is a
// file relative to the package directory or one of its parents.
func docViolations(t *testing.T, files []repoFile) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	for _, f := range files {
		dir := path.Dir(f.path)
		if !strings.HasSuffix(f.path, ".go") || (dir != "." && !documented.MatchString(dir)) {
			continue
		}
		file, err := parser.ParseFile(fset, f.path, f.text, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, ref := range missingMarkdown(dir, c.Text) {
					bad = append(bad, fmt.Sprintf("%s: comment names missing file %q", fset.Position(c.Pos()), ref))
				}
			}
		}
		if strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		for _, what := range undocumented(file) {
			bad = append(bad, fmt.Sprintf("%s: exported %s has no doc comment", fset.Position(what.Pos()), what.Name))
		}
	}
	return bad
}

// documented matches the package directories below the root whose
// exported identifiers need doc comments.
var documented = regexp.MustCompile(`^(internal|cmd)/[^/]+$`)

// missingMarkdown lists the Markdown paths a comment of a package in dir
// names that are no file relative to dir or to one of its parents up to
// the module root. URLs are not paths.
func missingMarkdown(dir, comment string) []string {
	var missing []string
	for _, ref := range mdRef.FindAllString(comment, -1) {
		if strings.Contains(ref, "//") {
			continue
		}
		for d := dir; ; d = path.Dir(d) {
			if fi, err := os.Stat(path.Join(d, strings.TrimPrefix(ref, "/"))); err == nil && !fi.IsDir() {
				break
			}
			if d == "." {
				missing = append(missing, ref)
				break
			}
		}
	}
	return missing
}

// undocumented lists a file's exported identifiers without a doc
// comment: functions, methods of exported receiver types, and type,
// const and var specs.
func undocumented(file *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && (d.Recv == nil || receiverExported(d.Recv)) {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						out = append(out, s.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, n)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a method receiver's base type name is
// exported (unwrapping pointers and generic instantiations).
func receiverExported(recv *ast.FieldList) bool {
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

var (
	// codeSpan matches a Markdown inline code span, which may wrap lines.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// shellWord matches one word of a command: quoted or bare.
	shellWord = regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"]+`)
	// testFunc matches the declaration of a test, benchmark, fuzz target
	// or example.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// missingNames checks the go test commands quoted in src: every
// top-level alternative of every -run, -bench and -fuzz regexp must
// match a test, benchmark, fuzz target or example declared in the
// _test.go files of the packages the command names ("." when it names
// none). '^$', which selects nothing on purpose, is exempt. In a YAML
// file a command is a line from "go test" on, backslash continuations
// joined; in Markdown it is an inline code span, wrapped lines joined.
func missingNames(t *testing.T, files []repoFile, src string) []string {
	t.Helper()
	var text string
	for _, f := range files {
		if f.path == src {
			text = f.text
		}
	}
	if text == "" {
		t.Fatalf("%s: not found", src)
	}
	var cmds []string
	if strings.HasSuffix(src, ".md") {
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			cmds = append(cmds, m[1])
		}
	} else {
		for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
			if _, cmd, ok := strings.Cut(line, "go test "); ok {
				cmds = append(cmds, cmd)
			}
		}
	}
	var bad []string
	for _, cmd := range cmds {
		var pkgs, regexps []string
		words := shellWord.FindAllString(cmd, -1)
		for i := 0; i < len(words) && words[i] != "-args"; i++ {
			flag, val, eq := strings.Cut(words[i], "=")
			switch {
			case flag == "-run" || flag == "-bench" || flag == "-fuzz":
				if !eq && i+1 < len(words) {
					i++
					val = words[i]
				}
				regexps = append(regexps, strings.Trim(val, `'"`))
			case words[i] == "." || strings.HasPrefix(words[i], "./"):
				pkgs = append(pkgs, words[i])
			}
		}
		if len(regexps) == 0 {
			continue
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		names := testNames(files, pkgs)
		for _, re := range regexps {
			for _, alt := range alternatives(re) {
				if alt == "^$" {
					continue
				}
				if !matchesAny(alt, names) {
					bad = append(bad, fmt.Sprintf("%s: go test %s: %q matches no test in %s",
						src, strings.Join(strings.Fields(cmd), " "), alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return bad
}

// testNames lists the test functions declared in the _test.go files of
// pkgs: directories like ./internal/mpi/, or trees like ./... .
func testNames(files []repoFile, pkgs []string) []string {
	var names []string
	for _, f := range files {
		if !strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		for _, pkg := range pkgs {
			dir, tree := strings.CutSuffix(path.Clean(pkg), "/...")
			if dir == "..." {
				dir, tree = ".", true
			}
			if d := path.Dir(f.path); d == dir || (tree && (dir == "." || strings.HasPrefix(d, dir+"/"))) {
				for _, m := range testFunc.FindAllStringSubmatch(f.text, -1) {
					if m[1] != "TestMain" {
						names = append(names, m[1])
					}
				}
				break
			}
		}
	}
	return names
}

// alternatives splits the top level of a go test selection regexp: the
// part before its first unbracketed / (the rest selects subtests) at
// each unbracketed |.
func alternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range re {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			alts = append(alts, re[start:i])
			if c == '/' {
				return alts
			}
			start = i + 1
		}
	}
	return append(alts, re[start:])
}

// matchesAny reports whether the regexp re matches one of names; a
// regexp that does not compile matches none.
func matchesAny(re string, names []string) bool {
	r, err := regexp.Compile(re)
	if err != nil {
		return false
	}
	for _, n := range names {
		if r.MatchString(n) {
			return true
		}
	}
	return false
}
