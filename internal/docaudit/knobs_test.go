package docaudit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unsetKnobs lists the exported core.Config fields no non-test file
// outside internal/core and examples/ names, each with the reason it
// stays.
var unsetKnobs = map[string]string{
	"BatchDraws": "bench/ sets it by reflection (setKnob), so the benchmark builds whether or not the field exists; ROADMAP item 11 decides the kernel",
}

// TestEveryConfigFieldHasACaller is the knob census: every exported
// core.Config field must be named — as a composite-literal key or on the
// left of an assignment — in some non-test Go file outside internal/core
// and examples/, or be listed in unsetKnobs. A field only the engine's
// own tests set is a branch no run takes. The match is by name, not by
// type: a same-named field of another struct also counts as a caller.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	fields := configFields(t)
	if len(fields) == 0 {
		t.Fatal("found no core.Config fields — the census is vacuous")
	}
	named := map[string]bool{}
	root := filepath.Join("..", "..")
	skip := map[string]bool{
		filepath.Join(root, "internal", "core"): true,
		filepath.Join(root, "examples"):         true,
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (skip[path] || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					named[key.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						named[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		_, allowed := unsetKnobs[f]
		switch {
		case !named[f] && !allowed:
			t.Errorf("core.Config.%s is set by no non-test code outside internal/core and examples/: delete it, or list it in unsetKnobs with a reason", f)
		case named[f] && allowed:
			t.Errorf("core.Config.%s has a caller now: drop it from unsetKnobs", f)
		}
	}
	for f := range unsetKnobs {
		if !slices.Contains(fields, f) {
			t.Errorf("unsetKnobs lists %s, which is not a core.Config field", f)
		}
	}
}

// configFields returns the exported field names of core.Config.
func configFields(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../core", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse ../core: %v", err)
	}
	var fields []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Config" {
					return true
				}
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							fields = append(fields, name.Name)
						}
					}
				}
				return false
			})
		}
	}
	return fields
}
