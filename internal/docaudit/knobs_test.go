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
	"Recycle":    "bench/ sets it by reflection (setKnob) for mesh_sparse and the core kernels; ROADMAP item 10 makes recycling unconditional and deletes the field",
}

// configFieldCount is how many exported fields core.Config has: a field
// added or deleted must move it, so a new knob is a visible decision.
const configFieldCount = 12

// TestEveryConfigFieldHasACaller is the knob census: every exported
// core.Config field must be named — as a composite-literal key or on the
// left of an assignment — in some non-test Go file outside internal/core
// and examples/, or be listed in unsetKnobs. A field only the engine's
// own tests set is a branch no run takes. The match is by name, not by
// type: a same-named field of another struct also counts as a caller.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	fields := configFields(t)
	if len(fields) != configFieldCount {
		t.Fatalf("core.Config has %d exported fields, the census counts %d: %v", len(fields), configFieldCount, fields)
	}
	named := map[string]bool{}
	walkNonTestGo(t, []string{filepath.Join("internal", "core"), "examples"}, func(_ string, file *ast.File) {
		for name := range setFields(file) {
			named[name] = true
		}
	})
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

// TestOnlyTracesListenForEvents pins the premise of core.Config.OnEvent:
// protocol events are for traces. Outside test files, the only code that
// sets an OnEvent field (matched by name, as the census does) is
// cmd/nocsim, for -trace; the metrics recorder and every measurement
// count from the engine instead, and a listener would turn off
// settlement at the sender.
func TestOnlyTracesListenForEvents(t *testing.T) {
	allowed := filepath.Join("cmd", "nocsim")
	found := false
	walkNonTestGo(t, nil, func(path string, file *ast.File) {
		if !setFields(file)["OnEvent"] {
			return
		}
		if filepath.Dir(path) != allowed {
			t.Errorf("%s sets an OnEvent hook: only %s (-trace) may listen for protocol events", path, allowed)
		}
		found = true
	})
	if !found {
		t.Fatalf("no file sets OnEvent, not even %s: the check is vacuous", allowed)
	}
}

// TestEngineIsSingleThreaded pins the round engine as one deterministic,
// single-threaded sweep: no non-test file of internal/core may import sync
// or sync/atomic or start a goroutine: replicas are what runs in parallel
// (internal/sim), and a round's phases touch other tiles' rings, rows
// and counts in an order the results depend on.
func TestEngineIsSingleThreaded(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../core", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse ../core: %v", err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			files++
			for _, imp := range file.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s imports %s: the round engine is single-threaded", name, path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement: the round engine starts no goroutine", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("no non-test file parsed in ../core: the check is vacuous")
	}
}

// walkNonTestGo parses every non-test Go file of the repository outside
// the skipped directories (paths relative to the repository root), and
// hands fn its root-relative path and syntax tree.
func walkNonTestGo(t *testing.T, skipDirs []string, fn func(path string, file *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	skip := map[string]bool{}
	for _, d := range skipDirs {
		skip[filepath.Join(root, d)] = true
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
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fn(rel, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// setFields returns the names file sets: composite-literal keys and
// selectors on the left of an assignment.
func setFields(file *ast.File) map[string]bool {
	named := map[string]bool{}
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
	return named
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
