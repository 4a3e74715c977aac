package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalCtxOnly keeps the internal packages ctx-only: each stage
// takes its context from the caller.  Only internal/cli and
// internal/serve own a lifetime (a command's, a server's), so only they
// may call context.Background(); anywhere else such a call is a
// context-free twin of a ...Ctx form.  The root facade keeps its plain
// forms for the examples.
func TestInternalCtxOnly(t *testing.T) {
	owners := map[string]bool{"internal/cli": true, "internal/serve": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			owners[filepath.ToSlash(filepath.Dir(path))] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Background" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" {
					t.Errorf("%s: context.Background() outside internal/cli and internal/serve", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
