package docaudit

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// uncalledFuncs lists the exported names under internal/ — functions,
// types, constants and variables as "pkg.Name", methods as
// "pkg.Type.Method" — that no non-test code calls, each with the reason
// it stays: a reference that the named test compares live code against,
// or a name that backs, through a test, the claim in the named
// EXPERIMENTS.md section.
var uncalledFuncs = map[string]string{
	"fft.Forward2D":                  "reference: TestDistributedMatchesSerial (internal/apps/fft2d) holds the distributed 2-D FFT to it",
	"topology.Reachable":             "reference: TestQuickDeliveryRequiresReachability (internal/core) holds the engine's deliveries to it",
	"topology.ConnectedComponents":   "reference: TestFabricConnected and TestBuildHierarchical (internal/diversity) check the fabric generators with it",
	"stats.LinReg":                   "reference: TestFig49Linearity (internal/experiments) fits Fig. 4-9's energy against p with it",
	"sim.WriteCheckpoint":            "reference: TestCheckpointFileRoundTrip and FuzzRestore (internal/snapshot) write the checkpoints ReadCheckpoint reads back",
	"sim.ReadCheckpoint":             "reference: TestCheckpointFileRoundTrip, TestReadCheckpointRejectsMissingMetrics, TestRecorderMatchesEventsPerRound and FuzzRestore (internal/snapshot) read checkpoints through it into the decoder LoadReplica, which bench's checkpoint kernel runs, shares",
	"mp3.SetupReplicated":            `claim: EXPERIMENTS.md "Stage replication for the MP3 pipeline"`,
	"gossip.RoundsToInform":          `claim: EXPERIMENTS.md "Fig. 3-1 — Message spreading, 1000-node fully connected network"`,
	"gossip.ExpectedRounds":          `claim: EXPERIMENTS.md "Fig. 3-1 — Message spreading, 1000-node fully connected network"`,
	"fault.Injector.AliveFuncs":      "reference: TestQuickDeliveryRequiresReachability (internal/core) hands the engine's fault state to topology.Reachable through it",
	"service.Client.Stream":          "reference: TestClientWireContract holds the client, the decoder of the job API every service test drives the live server through, to the wire",
	"service.Client.Preempt":         "reference: TestClientWireContract holds the client, the decoder of the job API every service test drives the live server through, to the wire",
	"service.Client.Cancel":          "reference: TestClientWireContract holds the client, the decoder of the job API every service test drives the live server through, to the wire",
	"service.Client.Stats":           "reference: TestClientWireContract holds the client, the decoder of the job API every service test drives the live server through, to the wire",
	"service.Client.Result":          "reference: TestClientWireContract holds the client, the decoder of the job API every service test drives the live server through, to the wire",
	"reliable.Endpoint.Send":         `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.Tick":         `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.HandlePacket": `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.Acked":        `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.Outstanding":  `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.Failed":       `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
	"reliable.Endpoint.Stats":        `claim: EXPERIMENTS.md "Higher-level protocol (§4.2.3), demonstrated"`,
}

// reasonRe splits an uncalledFuncs reason into its kind and the rest:
// a reference names the test that compares live code against the name,
// a claim quotes the EXPERIMENTS.md heading of the section it backs.
var reasonRe = regexp.MustCompile(`^(reference|claim): (.+)$`)

// claimRe matches the EXPERIMENTS.md heading a claim quotes.
var claimRe = regexp.MustCompile(`^EXPERIMENTS\.md "([^"]+)"$`)

// refereeRe matches the test and fuzz target names in a reference.
var refereeRe = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)

// TestEveryExportedFuncHasACaller is the caller census: every exported
// function, type, method, constant and package-level variable declared
// in a non-test file under internal/ must be used by some non-test code
// of the module outside its own declaration, or be listed in
// uncalledFuncs. A name only its own tests run is code no figure,
// binary, workload or claim needs. The census type-checks the module
// (see typeCheckModule), so a use is an object the checker resolved, not
// a matching name. A method counts as called also when its receiver, T
// or *T, implements an interface that declares a method of that name:
// error, or an interface of the module or of a package it imports, for
// fmt calls String and sort calls Len through theirs. A listed name that
// has a caller now fails too, as does a reference whose test is gone or
// a claim whose EXPERIMENTS.md heading is.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	decls, called := census(t)
	if len(decls) == 0 {
		t.Fatal("no exported name found under internal/: the census is vacuous")
	}
	names := make([]string, 0, len(decls))
	for name := range decls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, allowed := uncalledFuncs[name]
		switch {
		case !called[name] && !allowed:
			t.Errorf("%s (%s) has no non-test caller: delete it, or list it in uncalledFuncs with the test it referees or the EXPERIMENTS.md section it backs", name, decls[name])
		case called[name] && allowed:
			t.Errorf("%s has a non-test caller now: drop it from uncalledFuncs", name)
		}
	}
	headings := experimentsHeadings(t)
	tests := testFuncs(t)
	for name, reason := range uncalledFuncs {
		if _, ok := decls[name]; !ok {
			t.Errorf("uncalledFuncs lists %s, which is not an exported name under internal/", name)
		}
		m := reasonRe.FindStringSubmatch(reason)
		switch {
		case m == nil:
			t.Errorf("uncalledFuncs[%s] = %q: a reason starts with \"reference: \" or \"claim: \"", name, reason)
		case m[1] == "reference":
			referees := refereeRe.FindAllString(m[2], -1)
			if len(referees) == 0 {
				t.Errorf("uncalledFuncs[%s] names no test that compares live code against it", name)
			}
			for _, r := range referees {
				if !tests[r] {
					t.Errorf("uncalledFuncs[%s] names %s, which is no test function in the repository", name, r)
				}
			}
		default:
			c := claimRe.FindStringSubmatch(m[2])
			if c == nil {
				t.Errorf("uncalledFuncs[%s]: a claim reads `claim: EXPERIMENTS.md \"<heading>\"`, got %q", name, reason)
			} else if !headings[c[1]] {
				t.Errorf("uncalledFuncs[%s] backs EXPERIMENTS.md %q, which is not a heading there", name, c[1])
			}
		}
	}
}

// testFuncs returns the names of the Test and Fuzz functions declared in
// the repository's test files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	tests := map[string]bool{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(text), -1) {
			tests[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

// checkedPkg is one package of the module, type-checked from its
// non-test files.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
}

// typeCheckModule type-checks every package of the module from the
// non-test files go list reports for linux/amd64, in dependency order,
// and records the uses and definitions of all of them in one Info.
// Packages outside the module are read from the export data go list
// builds. The view is pinned to linux/amd64 whatever GOOS and GOARCH the
// test runs under, so that a 32-bit run checks the same tree.
func typeCheckModule(t *testing.T) (*token.FileSet, []checkedPkg, *types.Info) {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = repoRoot
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("go list built no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	source := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg := source[path]; pkg != nil {
				return pkg, nil
			}
			return gc.Import(path)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	var pkgs []checkedPkg
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		f := strings.Split(line, "\t")
		path, dir, export, goFiles := f[0], f[1], f[2], strings.Fields(f[3])
		exports[path] = export
		if path != module && !strings.HasPrefix(path, module+"/") || len(goFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range goFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		source[path] = pkg
		pkgs = append(pkgs, checkedPkg{pkg, files})
	}
	return fset, pkgs, info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// census maps each exported name declared in a non-test file under
// internal/ — "pkg.Name", or "pkg.Type.Method" for a method, pkg being
// the package's directory name — to its position, and reports which of
// them some non-test code of the module uses outside the name's own
// declaration (a type's own declaration includes its methods), or, for a
// method, calls through an interface.
func census(t *testing.T) (decls map[string]string, called map[string]bool) {
	t.Helper()
	fset, pkgs, info := typeCheckModule(t)
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	decls = map[string]string{}
	key := map[types.Object]string{}
	// own holds the source ranges of each declared name's own declaration.
	own := map[types.Object][][2]token.Pos{}
	var methods []*types.Func
	for _, cp := range pkgs {
		rest, ok := strings.CutPrefix(cp.pkg.Path(), module+"/internal/")
		if !ok {
			continue
		}
		prefix := filepath.Base(rest) + "."
		add := func(obj types.Object, name string) {
			key[obj] = name
			pos := fset.Position(obj.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			decls[name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(obj, prefix+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(m, prefix+name+"."+m.Name())
					methods = append(methods, m)
				}
			}
		}
		for _, file := range cp.files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					span := [2]token.Pos{d.Pos(), d.End()}
					fn := info.Defs[d.Name].(*types.Func)
					own[fn] = append(own[fn], span)
					if d.Recv != nil {
						tn := receiver(fn).Obj()
						own[tn] = append(own[tn], span)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						span := [2]token.Pos{s.Pos(), s.End()}
						switch s := s.(type) {
						case *ast.TypeSpec:
							tn := info.Defs[s.Name]
							own[tn] = append(own[tn], span)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								own[info.Defs[id]] = append(own[info.Defs[id]], span)
							}
						}
					}
				}
			}
		}
	}
	// Uses records the selected name of every selector too, so a method
	// call or field path resolves here as well as a qualified identifier.
	called = map[string]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		name, declared := key[obj]
		if !declared || called[name] {
			continue
		}
		inside := false
		for _, span := range own[obj] {
			inside = inside || span[0] <= id.Pos() && id.Pos() < span[1]
		}
		called[name] = !inside
	}
	ifaces := interfacesByMethod(pkgs)
	for _, m := range methods {
		if called[key[m]] {
			continue
		}
		recv := receiver(m)
		for _, iface := range ifaces[m.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				called[key[m]] = true
				break
			}
		}
	}
	return decls, called
}

// receiver returns the named type method fn is declared on.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named)
}

// interfacesByMethod indexes by method name the interfaces a method can
// be called through: error, and every non-generic interface type
// declared at package level in a package of the module or in a package
// one of them imports.
func interfacesByMethod(pkgs []checkedPkg) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	for _, cp := range pkgs {
		for _, pkg := range append([]*types.Package{cp.pkg}, cp.pkg.Imports()...) {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(iface)
				}
			}
		}
	}
	return byMethod
}
