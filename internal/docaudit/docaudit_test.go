// Package docaudit is a test-only CI gate for documentation coverage:
// every exported identifier in the audited packages (the observability
// layer — internal/core, internal/sim, internal/metrics, internal/trace
// — plus the statistical stack internal/smc, internal/stats and
// internal/gossip) must carry a godoc comment, every audited package a
// package-level doc comment, and every identifier the docs/ pages,
// DESIGN.md, README.md, EXPERIMENTS.md or PAPER.md cite must actually
// exist. The repo's convention is that godoc comments
// state units (rounds, bits, joules) and cite the thesis section they
// reproduce; this gate can only enforce presence, so the units rule is
// enforced by review — but an undocumented export fails CI here rather
// than slipping through. The same job runs the knob census
// (knobs_test.go): a core.Config field nothing outside the engine sets
// fails it too. And paths_test.go holds the docs to the tree: every
// internal/ path they name must exist, and DESIGN.md §2 must list every
// package. reach_test.go holds the tree to its uses: a package under
// internal/ that no binary, the benchmark or the figure harness imports
// must name in DESIGN.md the EXPERIMENTS.md section it backs, and
// callers_test.go holds the same rule below package level: an exported
// function, type, method, constant or variable nothing outside the tests
// uses must be a listed test reference or back a listed claim.
package docaudit

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// audited lists the packages under the godoc gate, relative to this
// directory.
var audited = []string{
	"../core", "../sim", "../metrics", "../trace",
	"../smc", "../stats", "../gossip", "../service",
}

// TestExportedIdentifiersDocumented parses each audited package
// (non-test files only) and fails with a file:line list of every
// exported declaration that has no doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range audited {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, miss := range auditDir(t, dir) {
				t.Error(miss)
			}
		})
	}
}

// TestPackagesHaveDocComment closes the gap the identifier audit used
// to skip: each audited package must have a package-level doc comment
// on at least one of its files (the `// Package x ...` block godoc
// renders as the package synopsis).
func TestPackagesHaveDocComment(t *testing.T) {
	for _, dir := range audited {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", dir, err)
			}
			for name, pkg := range pkgs {
				documented := false
				for _, file := range pkg.Files {
					if file.Doc != nil {
						documented = true
						break
					}
				}
				if !documented {
					t.Errorf("package %s (%s) has no package-level doc comment", name, dir)
				}
			}
		})
	}
}

// docIdentRe matches qualified identifier citations in the docs —
// `pkg.Exported` with an optional method or field selector.
var docIdentRe = regexp.MustCompile(`\b(core|sim|metrics|trace|smc|stats|gossip|rng|packet|topology|energy|fault|service|experiments)\.([A-Z][A-Za-z0-9]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// TestSMCDocReferencesExist cross-checks docs/SMC.md against the code:
// every `pkg.Identifier` the document cites must exist as an exported
// declaration of that package, and every `pkg.Type.Member` must name a
// field or method of that type, so the reference cannot rot silently
// when an API is renamed.
func TestSMCDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../docs/SMC.md")
}

// TestServiceDocReferencesExist applies the same link check to
// docs/SERVICE.md, the simulation-as-a-service daemon's reference.
func TestServiceDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../docs/SERVICE.md")
}

// TestObservabilityDocReferencesExist applies the same link check to
// docs/OBSERVABILITY.md, the hook and recorder reference.
func TestObservabilityDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../docs/OBSERVABILITY.md")
}

// TestDesignDocReferencesExist applies the same link check to
// DESIGN.md, the architecture reference.
func TestDesignDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../DESIGN.md")
}

// TestTestingDocReferencesExist applies the same link check to
// docs/TESTING.md, the test-suite guide, and fails for every test or
// fuzz target it names that no test function of the repository is, or
// starts with (a -run pattern such as TestQuick selects by prefix).
func TestTestingDocReferencesExist(t *testing.T) {
	const doc = "../../docs/TESTING.md"
	auditDocReferences(t, doc)
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t)
	for _, name := range refereeRe.FindAllString(string(text), -1) {
		found := false
		for test := range tests {
			found = found || strings.HasPrefix(test, name)
		}
		if !found {
			t.Errorf("%s names %s, which no test function in the repository is or starts with", doc, name)
		}
	}
}

// TestPaperDocReferencesExist applies the same link check to PAPER.md,
// whose subsystem table names packages and identifiers too.
func TestPaperDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../PAPER.md")
}

// TestREADMEReferencesExist applies the same link check to README.md.
func TestREADMEReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../README.md")
}

// TestExperimentsDocReferencesExist applies the same link check to
// EXPERIMENTS.md. Some of its sections are records of code that was
// measured and then deleted, and cite it by name on purpose; those
// citations are allowed by the exact text of the heading they sit under
// (deletedCodeRecords), and every such heading must still exist.
func TestExperimentsDocReferencesExist(t *testing.T) {
	auditDocReferences(t, "../../EXPERIMENTS.md")
}

// deletedCodeRecords maps a document to the sections that record deleted
// code: each exact heading line to the citations, as the link check
// prints them, that may name what is gone. A citation is allowed only
// under its own heading (the nearest heading above it).
var deletedCodeRecords = map[string]map[string][]string{
	"../../EXPERIMENTS.md": {
		"### Settlement at the sender: upsets, and counting without a recorder":         {"metrics.Recorder.OnEvent"},
		"## Engine scaling — the tile-sharded parallel engine":                          {"sim.AutoShards", "sim.Config.AutoShards"},
		"## Draw-kernel CPU time — fixed-point thresholds, batch draws, shard overhead": {"sim.AutoShards"},
		"## Variant matrix: what stayed, what went, and the number behind each":         {"sim.AutoShards"},
		"### The unaligned lane partition (PR 18)":                                      {"sim.AutoShards"},
		"### The tile-sharded round path (PR 40)":                                       {"sim.AutoShards", "experiments.GridScaling"},
		"## Frontier memory — resident set follows the live frontier":                   {"sim.AutoShards"},
	},
}

// auditDocReferences fails for every `pkg.Identifier` citation in doc
// that does not exist as an exported declaration of internal/<pkg>, and
// for every `pkg.Type.Member` citation whose Type has no such field or
// method, unless deletedCodeRecords allows it under its heading. A member
// of a non-type identifier (a variable's field) is not checked. An
// allowance whose heading is gone, or whose citation no longer appears
// under it, fails too, so the allowlist cannot outlive its records.
func auditDocReferences(t *testing.T, doc string) {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatalf("read %s: %v", doc, err)
	}
	records := deletedCodeRecords[doc]
	apis := map[string]*pkgAPI{}
	headings := map[string]bool{}
	used := map[[2]string]bool{}
	heading, fenced := "", false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		// A heading opens its own section: citations in it are checked
		// as part of that section.
		if !fenced && strings.HasPrefix(line, "#") {
			heading = line
			headings[heading] = true
		}
		for _, m := range docIdentRe.FindAllStringSubmatch(line, -1) {
			pkg, ident, member := m[1], m[2], m[3]
			if apis[pkg] == nil {
				apis[pkg] = parseAPI(t, "../"+pkg)
			}
			api := apis[pkg]
			var cite, problem string
			if !api.exported[ident] {
				cite = pkg + "." + ident
				problem = "which does not exist in internal/" + pkg
			} else if ms := api.members(ident); member != "" && ms != nil && !ms[member] {
				cite = pkg + "." + ident + "." + member
				problem = fmt.Sprintf("which is not a field or method of %s.%s", pkg, ident)
			} else {
				continue
			}
			if slices.Contains(records[heading], cite) {
				used[[2]string{heading, cite}] = true
				continue
			}
			t.Errorf("%s references %s, %s", doc, cite, problem)
		}
	}
	if len(apis) == 0 {
		t.Fatalf("%s cites no qualified identifiers — the link check is vacuous", doc)
	}
	for heading, cites := range records {
		if !headings[heading] {
			t.Errorf("%s has no heading %q, which deletedCodeRecords allows citations under", doc, heading)
			continue
		}
		for _, cite := range cites {
			if !used[[2]string{heading, cite}] {
				t.Errorf("%s no longer cites %s under %q: drop it from deletedCodeRecords", doc, cite, heading)
			}
		}
	}
}

// pkgAPI is what the doc link check knows of one package.
type pkgAPI struct {
	// exported holds the exported top-level identifiers (types, funcs,
	// consts, vars).
	exported map[string]bool
	// own maps each type to its declared fields and methods.
	own map[string]map[string]bool
	// embeds maps each type to the types it embeds: a type name, or ""
	// for a foreign type.
	embeds map[string][]string
}

// members returns the fields and methods of type name, promoted ones
// included, or nil when name is not a type of the package or its set
// cannot be known here (the type embeds a foreign type).
func (a *pkgAPI) members(name string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(n string) bool {
		if _, local := a.own[n]; !local {
			return false // a builtin or foreign type: members unknown
		}
		if seen[n] {
			return true
		}
		seen[n] = true
		for m := range a.own[n] {
			out[m] = true
		}
		for _, e := range a.embeds[n] {
			if !walk(e) {
				return false
			}
		}
		return true
	}
	if !walk(name) {
		return nil
	}
	return out
}

// parseAPI collects the pkgAPI of the package in dir (non-test files).
func parseAPI(t *testing.T, dir string) *pkgAPI {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	a := &pkgAPI{exported: map[string]bool{}, own: map[string]map[string]bool{}, embeds: map[string][]string{}}
	ownOf := func(typ string) map[string]bool {
		if a.own[typ] == nil {
			a.own[typ] = map[string]bool{}
		}
		return a.own[typ]
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if recv := recvType(d); recv != "" {
						ownOf(recv)[d.Name.Name] = true
					} else if d.Name.IsExported() {
						a.exported[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								a.exported[s.Name.Name] = true
							}
							a.addType(s, ownOf(s.Name.Name))
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() {
									a.exported[name.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return a
}

// addType records the fields (struct), methods (interface) and embedded
// types of one type declaration.
func (a *pkgAPI) addType(s *ast.TypeSpec, own map[string]bool) {
	var fields *ast.FieldList
	switch v := s.Type.(type) {
	case *ast.StructType:
		fields = v.Fields
	case *ast.InterfaceType:
		fields = v.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			own[n.Name] = true
		}
		if len(f.Names) == 0 {
			embedded := localType(f.Type)
			own[embedded] = true // an embedded field is named by its type
			a.embeds[s.Name.Name] = append(a.embeds[s.Name.Name], embedded)
		}
	}
}

// localType returns the name an embedded type has if it is declared in
// this package, or "" for a foreign one.
func localType(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// auditDir returns one "file:line: <what> is undocumented" string per
// exported declaration without a doc comment in dir.
func auditDir(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s is undocumented", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "func "+funcName(d))
					}
				case *ast.GenDecl:
					auditGenDecl(d, report)
				}
			}
		}
	}
	return missing
}

// auditGenDecl checks the specs of one const/var/type block. A doc
// comment on the block covers every spec in it (the grouped-const
// idiom); otherwise each exported spec needs its own.
func auditGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDoc && s.Doc == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				auditFields(s.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			if blockDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), d.Tok.String()+" "+name.Name)
				}
			}
		}
	}
}

// auditFields checks the exported fields of an exported struct type: a
// field needs a doc comment or an inline trailing comment (units live
// there).
func auditFields(typeName string, st *ast.StructType, report func(token.Pos, string)) {
	for _, f := range st.Fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), "field "+typeName+"."+name.Name)
			}
		}
	}
}

// recvType returns the base type name of a method's receiver, or "" for
// a plain function.
func recvType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types are not part of the API surface).
func exportedRecv(d *ast.FuncDecl) bool {
	recv := recvType(d)
	return recv == "" || ast.IsExported(recv)
}

// funcName renders "Name" or "(Recv).Name" for failure messages.
func funcName(d *ast.FuncDecl) string {
	if recv := recvType(d); recv != "" {
		return "(" + recv + ")." + d.Name.Name
	}
	return d.Name.Name
}
