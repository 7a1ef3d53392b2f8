package framework

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the module root from this test file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller information")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(file))))
}

// TestLoadTypeChecksCore proves the export-data loader stands in for
// go/packages: internal/core type-checks from source with its std and
// in-module imports resolved, and the type info answers the questions the
// analyzers ask (selections, uses, expression types).
func TestLoadTypeChecksCore(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Pkg.Path() != "repro/internal/core" {
		t.Fatalf("loaded %d packages, want exactly repro/internal/core", len(pkgs))
	}
	unit := pkgs[0]
	if len(unit.Files) == 0 {
		t.Fatal("no files parsed")
	}
	// The analyzers lean on Info.Types for range operands (mapdet asks
	// whether one is a map); check that range operands and map-typed
	// expressions resolve, and a method selection.
	var sawRange, sawMap, sawSelection bool
	for _, f := range unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if _, ok := unit.Info.Types[n.X]; ok {
					sawRange = true
				}
			case *ast.IndexExpr:
				if tv, ok := unit.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						sawMap = true
					}
				}
			case *ast.SelectorExpr:
				if unit.Info.Selections[n] != nil {
					sawSelection = true
				}
			}
			return true
		})
	}
	if !sawRange || !sawMap {
		t.Errorf("range operands resolved: %v, map-typed index resolved: %v; type info incomplete", sawRange, sawMap)
	}
	if !sawSelection {
		t.Error("no method selection resolved; type info incomplete")
	}
}

// TestLoadComments proves comments survive parsing, which the suppression
// index depends on.
func TestLoadComments(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/analysis/framework")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, unit := range pkgs {
		for _, f := range unit.Files {
			if len(f.Comments) > 0 {
				return
			}
		}
	}
	t.Error("no comments parsed")
}
