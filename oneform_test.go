package circuitql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The context form is the only form: outside cmd/, examples/ and bench/
// no package declares both N and NCtx, and nothing but the five lifetime
// roots mints a context of its own. opt.Bool stays until the frozen
// bench/ module stops linking it (ROADMAP 8(c)).
func TestOneFormPerEntryPoint(t *testing.T) {
	twins := map[string]bool{"internal/opt:Bool": true}
	roots := map[string]bool{
		"internal/engine/engine.go":        true,
		"internal/wire/server.go":          true,
		"internal/loadgen/loadgen.go":      true,
		"internal/qos/soaktest/harness.go": true,
		"internal/opt/bool.go":             true,
	}
	fset := token.NewFileSet()
	declared := map[string]bool{} // "dir:Func" or "dir:Recv.Method"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "cmd" || path == "examples" || path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				name := n.Name.Name
				if n.Recv != nil {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				declared[filepath.ToSlash(filepath.Dir(path))+":"+name] = true
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "context" &&
					(n.Sel.Name == "Background" || n.Sel.Name == "TODO") && !roots[path] {
					t.Errorf("%s: context.%s() outside the lifetime roots", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range declared {
		if declared[name+"Ctx"] && !twins[name] {
			t.Errorf("%s has a Ctx twin: one form per entry point", name)
		}
	}
}
