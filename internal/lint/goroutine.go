package lint

import (
	"go/ast"
)

// Goroutine flags go statements in simulator-core packages. The event
// loop is one goroutine by design: byte-identical runs rest on every
// state change happening in queue order, and a spawned goroutine's
// writes land whenever the runtime schedules them — exactly the
// nondeterminism the golden corpus exists to catch. Parallelism lives
// above the core, across whole runs (RunBatch); anything inside it
// needs a //lint:ordered waiver explaining why ordering cannot leak.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "flags go statements in simulator-core packages, whose event loop is single-goroutine by design",
	Run:  runGoroutine,
}

func runGoroutine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement in a simulator-core package; the event loop is single-goroutine and a spawned goroutine's writes escape queue order — spread work across runs with RunBatch, or waive with //lint:ordered <reason>")
			}
			return true
		})
	}
}
