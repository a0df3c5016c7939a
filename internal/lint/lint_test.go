package lint

// Golden tests for the analyzer suite, in the style of x/tools'
// analysistest: each analyzer runs over a fixture package under
// testdata/src/<analyzer>/..., and `// want `regex`` comments in the
// fixture assert the diagnostics, line by line. Fixtures type-check for
// real — stdlib imports resolve through the build cache's export data
// (`go list -export`), same as the production loader.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdlibResolve returns an import-path → export-data resolver for the
// stdlib packages fixtures import, shelling out to `go list -export`
// once per test run.
func stdlibResolve(t *testing.T) func(string) (string, bool) {
	t.Helper()
	stdExportsOnce.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json",
			"fmt", "errors", "strings", "sort")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdExportsErr = fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
			return
		}
		stdExports = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdExportsErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdExportsErr != nil {
		t.Fatalf("loading stdlib export data: %v", stdExportsErr)
	}
	return func(path string) (string, bool) {
		f, ok := stdExports[path]
		return f, ok
	}
}

// wantRe matches the expectation comment: // want `regex`
var wantRe = regexp.MustCompile("//\\s*want\\s+`([^`]+)`")

type wantKey struct {
	file string
	line int
}

// runFixture loads testdata/src/<pkgPath>, runs the analyzer, and
// checks the diagnostics against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	imp := newExportImporter(fset, stdlibResolve(t))
	tpkg, info, err := typecheck(fset, pkgPath, "", files, imp)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	diags, err := Run(&Package{Path: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Collect expectations.
	wants := make(map[wantKey][]*regexp.Regexp)
	total := 0
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], re)
				total++
			}
		}
	}
	if total == 0 {
		t.Fatalf("fixture %s has no want expectations", pkgPath)
	}

	// Match diagnostics against expectations.
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestBudgetCharge(t *testing.T) { runFixture(t, BudgetCharge, "budgetcharge/automaton") }
func TestDetOrder(t *testing.T)     { runFixture(t, DetOrder, "detorder/a") }
func TestErrSentinel(t *testing.T)  { runFixture(t, ErrSentinel, "errsentinel/a") }
func TestHotPathAlloc(t *testing.T) { runFixture(t, HotPathAlloc, "hotpathalloc/a") }
func TestRecoverGuard(t *testing.T) { runFixture(t, RecoverGuard, "recoverguard/server") }
func TestSpanEnd(t *testing.T)      { runFixture(t, SpanEnd, "spanend/a") }

// TestRepoClean runs the full suite over the whole module, pinning the
// zero-findings invariant CI enforces: any new violation (or analyzer
// regression producing false positives) fails tier-1 tests, not just
// the lint job.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
