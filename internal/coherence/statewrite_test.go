package coherence

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestBlockStateChangesOnlyInDispatch holds both controllers to their
// transition tables: the decision "which state does a block go to" is a
// table row, so no code in this package may change a cached block's state
// except through (*L1).dispatch, which applies a rule's Next with setState,
// nor a directory line's state except in (*Directory).dispatch, which
// applies a rule's Next itself. It scans the package's non-test files and
// fails on
//
//   - an assignment to a State field anywhere but setState (cache.Block's is
//     the package's only State field),
//   - an assignment to a state field anywhere but (*Directory).dispatch
//     (dirLine's is the package's only one),
//   - a setState call anywhere but (*L1).dispatch,
//   - a call of the cache's Install, except the one with which
//     installAndRequest claims a frame for a new tag (the victim has
//     already left its state through its Replace row).
func TestBlockStateChangesOnlyInDispatch(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			in := funcName(fn)
			flag := func(n ast.Node, what string) {
				sites = append(sites, fset.Position(n.Pos()).String()+": "+in+" "+what)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						switch {
						case isField(lhs, "State") && in != "(*L1).setState":
							flag(n, "assigns a block's State")
						case isField(lhs, "state") && in != "(*Directory).dispatch":
							flag(n, "assigns a directory line's state")
						}
					}
				case *ast.IncDecStmt:
					if isField(n.X, "State") || isField(n.X, "state") {
						flag(n, "steps a state")
					}
				case *ast.CallExpr:
					var callee string
					switch f := n.Fun.(type) {
					case *ast.SelectorExpr:
						callee = f.Sel.Name
					case *ast.Ident:
						callee = f.Name
					}
					switch {
					case callee == "setState" && in != "(*L1).dispatch":
						flag(n, "calls setState")
					case callee == "Install" && in != "(*L1).installAndRequest":
						flag(n, "calls the cache's Install")
					}
				}
				return true
			})
		}
	}
	if len(sites) > 0 {
		t.Fatalf("state changes outside the controllers' dispatch — make each a table row:\n  %s",
			strings.Join(sites, "\n  "))
	}
}

// funcName renders a declaration as "(*L1).dispatch" or "eventOf".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

// isField reports whether e is a selector of a field named name.
func isField(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
