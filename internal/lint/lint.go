// Package lint implements gfslint, the determinism-contract analyzer
// suite that guards the golden corpus at compile time.
//
// Every layer of this reproduction — the Eq. 13–16 placement loop, the
// event spine, the autoscaler — stands on one contract: runs are
// byte-identical whatever GOMAXPROCS or RunBatch worker count they
// execute under. The dynamic proof is TestGoldenCorpus and the
// cross-worker determinism tests; this package is the static half,
// promoting the checklist in docs/performance.md to machine-checked
// rules:
//
//   - mapiter: no range over a map in determinism-critical packages
//     unless the loop only collects keys for sorting.
//   - wallclock: no time.Now/Since/Until and no global math/rand in
//     those packages; seeded rand.New(rand.NewSource(...)) stays legal.
//   - goroutine: no go statements in the simulator core; its event
//     loop is single-goroutine by design.
//   - eventemit: sched.Event values are constructed only on the emit
//     path that stamps At/Seq under the run's event sequence.
//
// Intentional violations carry a //lint:ordered <reason> waiver on the
// offending line or the line directly above it. A waiver that no
// longer suppresses anything is itself a finding, so waivers cannot
// rot.
//
// The Analyzer/Pass surface deliberately mirrors
// golang.org/x/tools/go/analysis so each rule can be ported verbatim
// to a `go vet -vettool` multichecker; this repository grows in an
// offline container without x/tools, so the driver here is
// self-contained on go/ast, go/types and the go command (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one determinism rule: a name findings are reported
// under, a doc string for the rule catalogue, and a Run function
// invoked once per package.
type Analyzer struct {
	// Name identifies the rule in findings and the catalogue.
	Name string
	// Doc is the one-paragraph rule description.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package, mirroring
// analysis.Pass: parsed files, type information, and a report sink.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info

	diags *[]diag
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, diag{
		rule: p.Analyzer.Name,
		pos:  p.Fset.Position(pos),
		msg:  fmt.Sprintf(format, args...),
	})
}

// diag is a raw diagnostic before waivers are applied.
type diag struct {
	rule string
	pos  token.Position
	msg  string
}

// Finding is one confirmed violation (or waiver problem) with its
// source position resolved.
type Finding struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer (or "waiver" for waiver hygiene).
	Rule string
	// Msg explains the violation.
	Msg string
}

// String renders the finding in the file:line:col: rule: msg form the
// CLI prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzers returns the full rule suite in catalogue order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, WallClock, Goroutine, EventEmit}
}

// CheckPackage runs every analyzer the class enables over one loaded
// package, applies //lint:ordered waivers, and reports the surviving
// findings plus waiver-hygiene findings (missing reasons, stale
// waivers), sorted by position.
func CheckPackage(pkg *Package, class Class) []Finding {
	var diags []diag
	for _, a := range Analyzers() {
		if !class.enables(a.Name) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}

	waivers := collectWaivers(pkg.Fset, pkg.Files)
	var out []Finding
	for _, d := range diags {
		if w := matchWaiver(waivers, d.pos); w != nil {
			w.used = true
			continue
		}
		out = append(out, Finding{Pos: d.pos, Rule: d.rule, Msg: d.msg})
	}
	for _, w := range waivers {
		switch {
		case w.reason == "":
			out = append(out, Finding{Pos: w.pos, Rule: "waiver",
				Msg: "//lint:ordered waiver needs a justification: //lint:ordered <reason>"})
		case !w.used:
			out = append(out, Finding{Pos: w.pos, Rule: "waiver",
				Msg: fmt.Sprintf("stale //lint:ordered waiver (%q) suppresses nothing; delete it or move it to the violating line", w.reason)})
		}
	}
	sortFindings(out)
	return out
}

// Check loads every classified package matched by the patterns
// (resolved by the go tool from dir) and returns the combined
// findings. A nil, nil return means the tree is clean.
func Check(dir string, patterns []string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, CheckPackage(pkg, Table[pkg.Path])...)
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file, line, column, rule — a total
// order, so output is deterministic.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
