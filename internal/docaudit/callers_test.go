package docaudit

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// uncalledFuncs lists the exported receiver-less functions and types
// under internal/ that no non-test code calls, each with the reason it
// stays: a reference that the named test compares live code against,
// or a name that backs, through a test, the claim in the named
// EXPERIMENTS.md section.
var uncalledFuncs = map[string]string{
	"crc.Checksum16":                "reference: FuzzSerialEquivalence16 holds the bit-serial CRC-16 register to it",
	"crc.ChecksumSerial16":          "reference: FuzzSerialEquivalence16 holds the table CRC-16 to this bit-serial form",
	"crc.ChecksumSerial32":          "reference: FuzzSerialEquivalence32 holds the table CRC-32 to this bit-serial form",
	"fft.NaiveDFT":                  "reference: TestForwardMatchesNaiveDFT holds the radix-2 FFT to the O(n²) DFT",
	"fft.Forward2D":                 "reference: TestDistributedMatchesSerial (internal/apps/fft2d) holds the distributed 2-D FFT to it",
	"topology.Reachable":            "reference: TestQuickDeliveryRequiresReachability (internal/core) holds the engine's deliveries to it",
	"topology.ConnectedComponents":  "reference: TestFabricConnected and TestBuildHierarchical (internal/diversity) check the fabric generators with it",
	"topology.Diameter":             "reference: TestTorus and TestRing check the torus and ring generators with it",
	"gossip.TheoreticalFloodSpread": "reference: TestFloodSpreadDistMeanNearMeanField holds the exact flood law to this recursion",
	"wav.Read":                      "reference: TestRoundTrip (internal/audio/wav) reads back what wav.Write, which cmd/mp3enc uses, wrote",
	"signal.Energy":                 "reference: TestPureToneFrequency and TestNoiseAmplitudeBounded measure the Synth's output with it",
	"stats.LinReg":                  "reference: TestFig49Linearity (internal/experiments) fits Fig. 4-9's energy against p with it",
	"sim.WriteCheckpoint":           "reference: TestCheckpointFileRoundTrip and FuzzRestore (internal/snapshot) write the checkpoints ReadCheckpoint, which cmd/nocsim -resume-from uses, reads back",
	"mp3.SetupReplicated":           `claim: EXPERIMENTS.md "Stage replication for the MP3 pipeline"`,
	"gossip.RoundsToInform":         `claim: EXPERIMENTS.md "Fig. 3-1 — Message spreading, 1000-node fully connected network"`,
	"gossip.ExpectedRounds":         `claim: EXPERIMENTS.md "Fig. 3-1 — Message spreading, 1000-node fully connected network"`,
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
// receiver-less function and type declared in a non-test file under
// internal/ must be named by some non-test code — as a pkg.Name selector
// in another package, or as a bare identifier in another declaration of
// its own — or be listed in uncalledFuncs. A function only its own tests
// run is code no figure, binary, workload or claim needs. The match is by
// name within the package (a local of the same name also counts as a
// caller, the safe direction); methods are out of scope, since
// interfaces call them. A listed name that has a caller now fails too,
// as does a reference whose test is gone or a claim whose EXPERIMENTS.md
// heading is.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	decls := exportedFuncsAndTypes(t)
	if len(decls) == 0 {
		t.Fatal("no exported function or type found under internal/: the census is vacuous")
	}
	called := callerCensus(t)
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
			t.Errorf("uncalledFuncs lists %s, which is not an exported function or type under internal/", name)
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

// exportedFuncsAndTypes maps "pkg.Name" — pkg being the package's
// directory name — to the file of every exported receiver-less function
// and every exported type declared in a non-test file under internal/.
func exportedFuncsAndTypes(t *testing.T) map[string]string {
	t.Helper()
	decls := map[string]string{}
	walkNonTestGo(t, nil, func(path string, file *ast.File) {
		pkg, ok := internalPkg(path)
		if !ok {
			return
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				decls[pkg+"."+id.Name] = filepath.ToSlash(path)
			}
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					for _, s := range d.Specs {
						add(s.(*ast.TypeSpec).Name)
					}
				}
			}
		}
	})
	return decls
}

// callerCensus returns the "pkg.Name" keys that some non-test code
// names: a selector on an import of a package under internal/, from any
// file of the repository, or a bare identifier in a package under
// internal/ outside the declaration of Name itself (a function's own
// body, or a type's own declaration and methods).
func callerCensus(t *testing.T) map[string]bool {
	t.Helper()
	called := map[string]bool{}
	walkNonTestGo(t, nil, func(path string, file *ast.File) {
		imports := map[string]string{}
		for _, imp := range file.Imports {
			rest, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module+"/internal/")
			if !ok {
				continue
			}
			local := filepath.Base(rest)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = filepath.Base(rest)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					called[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		pkg, ok := internalPkg(path)
		if !ok {
			return
		}
		use := func(owner string) func(string) {
			return func(name string) {
				if name != owner {
					called[pkg+"."+name] = true
				}
			}
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				owner := fd.Name.Name
				if fd.Recv != nil {
					owner = receiverType(fd)
				}
				bareIdents(fd, use(owner))
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				owner := ""
				if ts, ok := s.(*ast.TypeSpec); ok {
					owner = ts.Name.Name
				}
				bareIdents(s, use(owner))
			}
		}
	})
	return called
}

// internalPkg returns the directory name of the package a root-relative
// path under internal/ belongs to.
func internalPkg(path string) (string, bool) {
	if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
		return "", false
	}
	return filepath.Base(filepath.Dir(path)), true
}

// receiverType returns the name of a method's receiver type, so that a
// type's own methods do not count as its callers.
func receiverType(fd *ast.FuncDecl) string {
	name := ""
	ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && name == "" {
			name = id.Name
		}
		return name == ""
	})
	return name
}

// bareIdents calls fn with every identifier under n that may name a
// package-level declaration: function, method and field names, selected
// members and struct-literal keys are skipped.
func bareIdents(n ast.Node, fn func(name string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				bareIdents(n.Recv, fn)
			}
			bareIdents(n.Type, fn)
			if n.Body != nil {
				bareIdents(n.Body, fn)
			}
			return false
		case *ast.Field:
			bareIdents(n.Type, fn)
			return false
		case *ast.SelectorExpr:
			bareIdents(n.X, fn)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); !ok {
				bareIdents(n.Key, fn)
			}
			bareIdents(n.Value, fn)
			return false
		case *ast.Ident:
			fn(n.Name)
		}
		return true
	})
}
