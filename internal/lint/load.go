package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The standalone loader: it shells out to `go list -export -deps -json`
// for the build-system view of the packages under analysis (file lists
// plus compiled export data for every dependency, all produced locally
// by the build cache — no network), then parses the target packages from
// source and type-checks them against that export data. This is the same
// division of labor as go/packages' LoadAllSyntax, minus the x/tools
// dependency.

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ GoVersion string }
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns in dir, type-checks each
// from source, and returns them ready for Run.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var roots []*listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pp := p
			roots = append(roots, &pp)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	var pkgs []*Package
	for _, root := range roots {
		if len(root.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range root.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(root.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		goVersion := ""
		if root.Module != nil && root.Module.GoVersion != "" {
			goVersion = "go" + root.Module.GoVersion
		}
		pkg, info, err := typecheck(fset, root.ImportPath, goVersion, files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", root.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  root.ImportPath,
			Fset:  fset,
			Files: files,
			Types: pkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// newExportImporter returns a types importer that resolves import paths
// through resolve (import path → compiled export-data file) and reads
// the export data with the standard library's gc importer.
func newExportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := resolve(path)
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// typecheck type-checks one package's parsed files. Type errors do not
// abort the check (files may be analyzed best-effort); the first error
// is returned only when the package's type information is unusable.
func typecheck(fset *token.FileSet, path, goVersion string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := NewInfo()
	var firstErr error
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if pkg == nil {
		if firstErr != nil {
			err = firstErr
		}
		return nil, nil, err
	}
	return pkg, info, firstErr
}
