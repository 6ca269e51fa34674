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
	"sort"
)

// Package is one loaded, type-checked target package.
type Package struct {
	// Path is the import path.
	Path string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in GoFiles order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the checker's fact tables.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// goList runs the go tool in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportData maps every package reachable from the patterns to its
// compiled export-data file in the build cache, compiling as needed.
// This is what lets the loader type-check offline: imports resolve
// from the gc compiler's own artifacts, no network, no source
// re-checking of the standard library.
func exportData(dir string, patterns []string) (map[string]string, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m, nil
}

// exportImporter returns a types.Importer resolving import paths via
// the export map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// newInfo allocates the fact tables the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// parseFiles parses the named files (with comments, for waivers).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks one package's parsed files.
func checkFiles(path string, fset *token.FileSet, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: imp}
	return conf.Check(path, fset, files, info)
}

// Load resolves the patterns with the go tool (from dir), keeps the
// packages whose import path keep accepts (all of them when keep is
// nil), and parses and type-checks each against build-cache export
// data. Packages come back sorted by import path.
func Load(dir string, patterns []string, keep func(path string) bool) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	var targets []listedPackage
	for _, p := range listed {
		if keep == nil || keep(p.ImportPath) {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	// One export sweep covers every target's imports: targets are
	// themselves reachable from the patterns, so their dependencies
	// all appear in the -deps listing.
	exports, err := exportData(dir, patterns)
	if err != nil {
		return nil, err
	}

	var out []*Package
	for _, t := range targets {
		fset := token.NewFileSet()
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", t.ImportPath, err)
		}
		info := newInfo()
		tpkg, err := checkFiles(t.ImportPath, fset, files, exportImporter(fset, exports), info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  t.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return out, nil
}
