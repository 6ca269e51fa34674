package lint

import (
	"go/ast"
	"go/types"
)

// EventEmit flags construction of sched.Event values outside the emit
// path. Events carry the run's sequence: Simulator.emit stamps At and
// Seq under the single per-run counter, which is what gives observers
// one totally ordered, gap-free stream (and what the NodeRetired
// cordon-ordering fix in the autoscaler PR shows is easy to violate by
// hand). An Event literal is therefore only legal as the
// direct argument of an emit-path call — s.emit(Event{...}),
// f.emitFed(Event{...}) — where the stamping happens before any
// observer sees it. Building an Event elsewhere and publishing it
// later invites an unstamped or mis-ordered event; restructure so the
// literal flows straight into emit, or waive with //lint:ordered.
var EventEmit = &Analyzer{
	Name: "eventemit",
	Doc: "flags sched.Event values constructed outside the global-sequence " +
		"emit path (s.emit/f.emitFed call arguments)",
	Run: runEventEmit,
}

// blessedEmit names the emit-path functions allowed to receive a
// freshly built Event literal.
var blessedEmit = map[string]bool{
	"emit":    true,
	"emitFed": true,
}

func runEventEmit(p *Pass) {
	for _, f := range p.Files {
		// Track the node path so a literal can check its parent call.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			cl, ok := n.(*ast.CompositeLit)
			if !ok || !isSchedEvent(p.Info.TypeOf(cl)) {
				return true
			}
			if inBlessedEmitCall(stack, cl) {
				return true
			}
			p.Reportf(cl.Pos(), "sched.Event constructed outside the emit path; At/Seq stamping under the global sequence only happens inside emit — pass the literal directly to emit/emitFed, or waive with //lint:ordered <reason>")
			return true
		})
	}
}

// isSchedEvent reports whether t is the sched package's Event type.
func isSchedEvent(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Name() == "sched"
}

// inBlessedEmitCall reports whether the literal (possibly behind a
// single &) is a direct argument of a blessed emit call.
func inBlessedEmitCall(stack []ast.Node, cl *ast.CompositeLit) bool {
	// stack[len-1] is cl itself.
	i := len(stack) - 2
	if i < 0 {
		return false
	}
	var arg ast.Expr = cl
	if u, ok := stack[i].(*ast.UnaryExpr); ok && u.X == cl {
		arg = u
		i--
		if i < 0 {
			return false
		}
	}
	call, ok := stack[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, a := range call.Args {
		if a == arg {
			return blessedEmit[calleeName(call)]
		}
	}
	return false
}

// calleeName returns the bare name of a call's callee.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
