package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// The gate matches the names go tool nm prints against the names of
// declarations; a mismatch would report a linked function as dead, or
// hide a dead one.
func TestNamesMatchNm(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/wire.collect[go.shape.int]":                    "repro/wire.collect",
		"repro/wire.collect[go.shape.map[string][]int]":       "repro/wire.collect",
		"repro/x.(*set[go.shape.struct { A int }]).add.func1": "repro/x.(*set).add",
		"repro/x.(*T).M-fm":                                   "repro/x.(*T).M",
		"repro/x.F.func2.gowrap1":                             "repro/x.F",
		"repro/x.F.deferwrap1":                                "repro/x.F",
		"repro/internal/core.(*Plan).SolveInto":               "repro/internal/core.(*Plan).SolveInto",
		"repro/internal/core.Allocation.Utilization":          "repro/internal/core.Allocation.Utilization",
		"repro.Solve": "repro.Solve",
	} {
		if got := symbolFunc(sym); got != want {
			t.Errorf("symbolFunc(%q) = %q, want %q", sym, got, want)
		}
	}

	src := `package x
func F() {}
func (T) M() {}
func (*T) P() {}
func (s *set[K]) add() {}
func (m pair[K, V]) get() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"F", "T.M", "(*T).P", "(*set).add", "pair.get"}
	for i, decl := range f.Decls {
		if got := funcName(decl.(*ast.FuncDecl)); got != want[i] {
			t.Errorf("declaration %d named %q, want %q", i, got, want[i])
		}
	}
}
