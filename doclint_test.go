package gfs_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/lint"
)

// TestExportedSymbolsDocumented is the doc-lint gate run by CI: every
// exported top-level identifier in the public package, the simulator
// core, the trace-ingestion package, the stats package (which the
// metrics collectors build on) and the autoscale policy package must
// carry a doc comment. A type/const/var inside a documented
// declaration group inherits the group's comment; exported functions
// and methods always need their own.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/sched", "internal/trace", "internal/stats", "internal/autoscale"} {
		for _, miss := range undocumented(t, dir) {
			t.Errorf("%s: %s is exported but undocumented", dir, miss)
		}
	}
}

// TestExportedSymbolCeilings is the size ledger of the exported
// surface, per package, in two columns pinned to the counts at the
// last change that moved them. The core column counts functions,
// types, and methods on exported types (what `go doc -all` lists as
// func and type lines) outside benchpin.go; the pins column counts
// every exported declaration in benchpin.go, methods on an unexported
// receiver included: the names only bench/ compiles against, which
// ROADMAP item 1a deletes. It fails when a count differs from its pin
// in either direction, so the pin moves only on purpose: down with
// every deletion, up only with a reason.
func TestExportedSymbolCeilings(t *testing.T) {
	for _, c := range []struct {
		dir        string
		core, pins int
	}{
		{".", 183, 7},
		{"internal/sched", 85, 7},
		{"internal/cluster", 55, 0},
		{"internal/stats", 23, 0},
		{"internal/service", 16, 1},
		{"internal/simclock", 17, 5},
		{"internal/forecast", 56, 0},
	} {
		core, pins := exportedCounts(t, c.dir)
		for _, col := range []struct {
			name         string
			got, ceiling int
		}{{"core", core, c.core}, {"pins", pins, c.pins}} {
			switch got, ceiling := col.got, col.ceiling; {
			case got > ceiling:
				t.Errorf("%s exports %d %s symbols, ceiling %d (%+d): delete what has no caller, or raise the ceiling in doclint_test.go and justify it in CHANGES.md",
					c.dir, got, col.name, ceiling, got-ceiling)
			case got < ceiling:
				t.Errorf("%s exports %d %s symbols, ceiling %d (%+d): lower the ceiling in doclint_test.go to %d so the deletion stays deleted",
					c.dir, got, col.name, ceiling, got-ceiling, got)
			}
		}
	}
}

// exportedCounts counts the exported declarations of the package in
// dir (tests excluded): core outside benchpin.go, pins inside it.
func exportedCounts(t *testing.T, dir string) (core, pins int) {
	t.Helper()
	fset, decls := nonTestDecls(t, dir)
	for _, decl := range decls {
		pin := filepath.Base(fset.Position(decl.Pos()).Filename) == "benchpin.go"
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case pin:
				pins++
			case !unexportedRecv(d):
				core++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if sp, ok := spec.(*ast.TypeSpec); ok && sp.Name.IsExported() {
					if pin {
						pins++
					} else {
						core++
					}
				}
			}
		}
	}
	return core, pins
}

// TestBenchPinsHaveNoProgramCaller: a name declared in a benchpin.go
// is kept only because bench/ (its own module) compiles against it,
// so no non-test file of this module outside a benchpin.go may use
// one. Uses are resolved by go/types (gfslint's loader, over every
// package of the module), not by name, so a pinned Finish and a
// collector's Finish are told apart.
func TestBenchPinsHaveNoProgramCaller(t *testing.T) {
	pkgs, err := lint.Load(".", []string{"./..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			use, decl := p.Fset.Position(id.Pos()), p.Fset.Position(obj.Pos())
			if filepath.Base(decl.Filename) != "benchpin.go" || filepath.Base(use.Filename) == "benchpin.go" {
				continue
			}
			name := obj.Pkg().Path() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				name = fn.FullName()
			}
			t.Errorf("%s uses bench pin %s: call what the pin forwards to (ROADMAP item 1a)", use, name)
		}
	}
}

// TestConfigFieldCeilings is the knob ledger: the exported fields of
// every configuration struct, pinned to the counts at the last change
// that moved them. A field no caller varies belongs in a constant
// beside the code that reads it, so, like the symbol ledger, this
// fails when a count differs from its pin in either direction.
func TestConfigFieldCeilings(t *testing.T) {
	for _, c := range []struct {
		dir, typ string
		ceiling  int
	}{
		{".", "Member", 3},
		{"internal/autoscale", "Policy", 6},
		{"internal/core", "Options", 4},
		{"internal/forecast", "OrgLinearConfig", 1},
		{"internal/gde", "Config", 3},
		{"internal/pts", "Config", 3},
		{"internal/runspec", "Spec", 13},
		{"internal/sched", "DiurnalProfile", 4},
		{"internal/sched", "FedConfig", 5},
		{"internal/sched", "ScenarioAction", 7},
		{"internal/sched", "SimConfig", 7},
		{"internal/sched", "StormProfile", 6},
		{"internal/service", "Config", 6},
		{"internal/sqa", "Config", 1},
		{"internal/timefeat", "DiurnalCurve", 3},
		{"internal/trace", "Config", 12},
	} {
		got := -1
		_, decls := nonTestDecls(t, c.dir)
		for _, decl := range decls {
			if d, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range d.Specs {
					if sp, ok := spec.(*ast.TypeSpec); ok && sp.Name.Name == c.typ {
						got = exportedFields(sp)
					}
				}
			}
		}
		switch {
		case got < 0:
			t.Errorf("%s: no struct type %s", c.dir, c.typ)
		case got > c.ceiling:
			t.Errorf("%s.%s has %d exported fields, ceiling %d (%+d): make a field no caller varies a constant, or raise the ceiling in doclint_test.go and justify it in CHANGES.md",
				c.dir, c.typ, got, c.ceiling, got-c.ceiling)
		case got < c.ceiling:
			t.Errorf("%s.%s has %d exported fields, ceiling %d (%+d): lower the ceiling in doclint_test.go to %d so the deletion stays deleted",
				c.dir, c.typ, got, c.ceiling, got-c.ceiling, got)
		}
	}
}

// exportedFields counts the exported fields of a struct type spec,
// embedded ones included; -1 if it is no struct.
func exportedFields(sp *ast.TypeSpec) int {
	st, ok := sp.Type.(*ast.StructType)
	if !ok {
		return -1
	}
	n := 0
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
				n++
			}
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				n++
			}
		}
	}
	return n
}

// nonTestDecls parses the package in dir (tests excluded) and returns
// its top-level declarations with the file set that positions them.
func nonTestDecls(t *testing.T, dir string) (*token.FileSet, []ast.Decl) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var out []ast.Decl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			out = append(out, file.Decls...)
		}
	}
	return fset, out
}

// undocumented lists the exported declarations of the package in dir
// lacking doc comments.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	fset, decls := nonTestDecls(t, dir)
	for _, decl := range decls {
		out = append(out, undocumentedInDecl(fset, decl)...)
	}
	return out
}

func undocumentedInDecl(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	flag := func(pos token.Pos, name string) {
		out = append(out, fmt.Sprintf("%s (%s)", name, fset.Position(pos)))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc.Text() == "" && !unexportedRecv(d) {
			flag(d.Pos(), d.Name.Name)
		}
	case *ast.GenDecl:
		groupDoc := d.Doc.Text() != ""
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && sp.Doc.Text() == "" && sp.Comment.Text() == "" && !groupDoc {
					flag(sp.Pos(), sp.Name.Name)
				}
			case *ast.ValueSpec:
				if sp.Doc.Text() != "" || sp.Comment.Text() != "" || groupDoc {
					continue
				}
				for _, name := range sp.Names {
					if name.IsExported() {
						flag(sp.Pos(), name.Name)
					}
				}
			}
		}
	}
	return out
}

// unexportedRecv reports whether d is a method whose receiver type is
// unexported — such methods never surface in godoc, so they are
// exempt.
func unexportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ident, ok := typ.(*ast.Ident); ok {
		return !ident.IsExported()
	}
	return false
}
