package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Frozensnap enforces the frozen-snapshot certification discipline from
// core/doc.go: worker goroutines spawned during batch certification read
// a snapshot of the spanner-so-far and must not mutate any captured
// shared state — the snapshot graph, the result, the hub oracle, the
// bound store. Workers communicate exclusively through owner-indexed
// slots (errs[w], certified[i]) so no two goroutines touch the same
// element and the join can merge results deterministically.
//
// Inside every `go func` literal the analyzer flags: (a) assignments and
// ++/-- on captured variables or fields of captured variables; (b)
// element writes through a captured slice or map when any index on the
// access path is itself captured (an owner-indexed write uses only the
// literal's own parameters and locals as indices); (c) method calls on
// captured values of the engine's shared snapshot types, unless the
// method is in the read-only allowlist. Writes that are genuinely safe
// (e.g. a fold row owned by exactly one worker) carry a
// //spannerlint:ignore frozensnap <reason> annotation.
var Frozensnap = &framework.Analyzer{
	Name:  "frozensnap",
	Doc:   "worker closures in batch certification must not write captured snapshot state",
	Scope: []string{"internal/core"},
	Run:   runFrozensnap,
}

// frozenTypes are the named types that constitute shared snapshot state
// during certification.
var frozenTypes = map[string]bool{
	"Graph":               true,
	"Result":              true,
	"HubOracle":           true,
	"boundStore":          true,
	"IncrementalSpanner":  true,
	"ParallelStats":       true,
	"MetricParallelStats": true,
	"FaultTolerantStats":  true,
}

// frozenReadOnly are methods on frozen types that only observe state.
var frozenReadOnly = map[string]bool{
	"N": true, "M": true, "Edges": true, "EdgesCopy": true,
	"Neighbors": true, "EdgeWeight": true, "SortedEdges": true,
	"Certify": true, "CertifyAvoiding": true, "separates": true, "Hubs": true,
	"Relaxed": true, "countRows": true, "get": true, "Size": true, "Graph": true,
	"MaxDegree": true, "Lightness": true, "Weight": true,
	"Stretch": true, "verifyPair": true, "PeakBucket": true,
}

func runFrozensnap(pass *framework.Pass) error {
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorker(pass, info, lit)
			// Nested go statements inside the literal are visited again by
			// the outer Inspect; their own literals get their own pass.
			return true
		})
	}
	return nil
}

// checkWorker walks one worker literal. Locality is positional: an
// object declared anywhere inside the literal (parameters included) is
// the worker's own; everything else is captured.
func checkWorker(pass *framework.Pass, info *types.Info, lit *ast.FuncLit) {
	local := func(obj types.Object) bool {
		return obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End()
	}
	capturedVar := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && !local(obj) {
			return obj
		}
		return nil
	}

	flagWrite := func(pos token.Pos, lhs ast.Expr) {
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		obj := capturedVar(root)
		if obj == nil {
			return
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			pass.Reportf(pos, "worker closure writes captured variable %s: workers must only write owner-indexed slots", root.Name)
		case *ast.SelectorExpr:
			pass.Reportf(pos, "worker closure writes field %s of captured %s: snapshot state is frozen during certification", lhs.Sel.Name, root.Name)
		case *ast.StarExpr:
			pass.Reportf(pos, "worker closure writes through captured pointer %s: snapshot state is frozen during certification", root.Name)
		default:
			// Indexed write: owner-indexed (all indices local) is the
			// sanctioned communication channel; a captured index means two
			// workers can collide on the same slot.
			if !allIndicesLocal(info, lhs, local) {
				pass.Reportf(pos, "worker closure writes %s through a non-owner index: workers may only write slots indexed by their own parameters and locals", exprString(lhs))
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flagWrite(n.TokPos, lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(n.TokPos, n.X)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			root := rootIdent(sel.X)
			if root == nil {
				return true
			}
			obj := capturedVar(root)
			if obj == nil {
				return true
			}
			tname := namedTypeName(obj.Type())
			if frozenTypes[tname] && !frozenReadOnly[sel.Sel.Name] {
				pass.Reportf(n.Pos(), "worker closure calls %s.%s on captured %s state: certification snapshots are frozen; only read-only methods are allowed", root.Name, sel.Sel.Name, tname)
			}
		}
		return true
	})
}

// allIndicesLocal walks the selector/index chain of an lvalue and
// reports whether every index expression is a worker-local identifier or
// a constant.
func allIndicesLocal(info *types.Info, e ast.Expr, local func(types.Object) bool) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if !indexIsLocal(info, x.Index, local) {
				return false
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return true
		}
	}
}

// indexIsLocal accepts constants, worker-local identifiers, and simple
// arithmetic over them (i+1, start+k).
func indexIsLocal(info *types.Info, idx ast.Expr, local func(types.Object) bool) bool {
	ok := true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return ok
		}
		obj := info.Uses[id]
		if obj == nil {
			return ok
		}
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() && !local(obj) {
			ok = false
		}
		return ok
	})
	return ok
}
