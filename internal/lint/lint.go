// Package lint is pathalgebra's static-analysis suite: a small,
// dependency-free go/analysis-style framework plus the project-specific
// analyzers that machine-check the engine's hand-maintained invariants
// (budget accounting, hot-path allocation discipline, deterministic
// iteration order, typed error sentinels, panic recovery, span ends).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Reportf, analysistest-style fixtures — but is built on
// the standard library alone (go/ast, go/types, go/importer and `go list
// -export` for type information), so the module keeps a zero-dependency
// go.mod and the checker builds in hermetic environments with no module
// proxy access.
//
// Two conventions are recognized in analyzed source:
//
//   - `//pathalgebra:hotpath` in a function's doc comment opts the
//     function into the hotpathalloc analyzer's allocation ban.
//   - `//lint:ignore <analyzer>[,<analyzer>...] reason` on the flagged
//     line, or on the line immediately above it, suppresses the named
//     analyzers' diagnostics for that line. The reason is mandatory by
//     convention and should say why the invariant holds anyway.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It is the stdlib-only
// counterpart of analysis.Analyzer: Run inspects one package via a Pass
// and reports findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// suppressions.
	Name string
	// Doc is the one-paragraph description shown by `pathalgebravet help`.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files (test files are
	// excluded by the runner: the invariants the suite checks are
	// production-code invariants).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// A Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File // all parsed files, test files included
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every standard map allocated — the
// analyzers rely on Types, Defs, Uses and Selections being populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Run applies the analyzers to pkg, drops suppressed findings, and
// returns the rest sorted by position. Test files (*_test.go) are never
// analyzed, matching the suite's production-invariant scope.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	sup := newSuppressions()
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
		sup.scan(pkg.Fset, f)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.matches(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// ignoreRe matches the suppression directive: //lint:ignore a,b reason.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([\w,]+)(?:\s+(.*))?$`)

// suppressions records, per file, the lines covered by //lint:ignore
// directives and the analyzers they name. A directive covers its own
// line (trailing comment) and the line below it (leading comment).
type suppressions struct {
	byFileLine map[string]map[int]map[string]bool
}

func newSuppressions() *suppressions {
	return &suppressions{byFileLine: make(map[string]map[int]map[string]bool)}
}

func (s *suppressions) scan(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			lines := s.byFileLine[pos.Filename]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				s.byFileLine[pos.Filename] = lines
			}
			for _, line := range []int{pos.Line, pos.Line + 1} {
				names := lines[line]
				if names == nil {
					names = make(map[string]bool)
					lines[line] = names
				}
				for _, n := range strings.Split(m[1], ",") {
					names[n] = true
				}
			}
		}
	}
}

func (s *suppressions) matches(d Diagnostic) bool {
	return s.byFileLine[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// HasHotpathDirective reports whether the function declaration opts into
// the hot-path allocation ban via a //pathalgebra:hotpath doc line.
func HasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == "//pathalgebra:hotpath" {
			return true
		}
	}
	return false
}

// namedTypeName returns the name of t's core named type, looking through
// pointers and aliases; "" when t has none (slices, maps, builtins...).
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	} else if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if a, ok := t.(*types.Alias); ok {
		return a.Obj().Name()
	}
	return ""
}

// methodCall resolves call as recv.Name(...): the receiver's named type
// and the method name. ok is false for plain function and package calls.
func methodCall(info *types.Info, call *ast.CallExpr) (recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	if s, found := info.Selections[sel]; found && s.Kind() == types.MethodVal {
		return namedTypeName(s.Recv()), sel.Sel.Name, true
	}
	return "", "", false
}

// pkgFuncCall resolves call as pkg.Name(...) for a package-level
// function of the package named pkgName (e.g. fmt, strings).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgName string) (fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg || pn.Imported().Name() != pkgName {
		return "", false
	}
	return sel.Sel.Name, true
}
