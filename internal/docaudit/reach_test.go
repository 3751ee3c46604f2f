package docaudit

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// reachRoots are the directories, as globs relative to the repository
// root, whose programs regenerate the paper's figures or serve runs: the
// binaries, the benchmark and the per-figure experiment harness.
var reachRoots = []string{"cmd/*", "bench", "internal/experiments"}

// module is the module path go.mod declares. Were it renamed, the walk
// would reach no internal package and the test fail on internal/core.
const module = "repro"

// sectionCiteRe matches a DESIGN.md citation of an EXPERIMENTS.md
// section: EXPERIMENTS.md "<heading text>".
var sectionCiteRe = regexp.MustCompile(`EXPERIMENTS\.md "([^"]+)"`)

// TestEveryPackageIsReached fails for every package under internal/
// that no root imports, directly or through other packages (non-test
// files only), unless its own DESIGN.md §2 row names, as
// EXPERIMENTS.md "<heading>", the EXPERIMENTS.md section it backs. Code
// that no figure, binary or workload runs and no documented
// demonstration needs is dead weight every later change has to carry.
func TestEveryPackageIsReached(t *testing.T) {
	reached := reachedPackages(t)
	if !reached["internal/core"] {
		t.Fatal("the roots do not reach internal/core: the import walk is broken")
	}
	text, err := os.ReadFile(filepath.Join(repoRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	inventory := designSection(t, string(text), "## 2.")
	headings := experimentsHeadings(t)
	for _, pkg := range packageDirs(t) {
		if reached[pkg] {
			continue
		}
		row := inventoryRow(inventory, pkg)
		cited := ""
		for _, m := range sectionCiteRe.FindAllStringSubmatch(row, -1) {
			if headings[m[1]] {
				cited = m[1]
			} else {
				t.Errorf("DESIGN.md §2 row of %s cites EXPERIMENTS.md %q, which is not a heading there", pkg, m[1])
			}
		}
		if cited == "" {
			t.Errorf("%s is reached from no root (%s): delete it, or name in its own DESIGN.md §2 row the section it backs, as EXPERIMENTS.md \"<heading>\"",
				pkg, strings.Join(reachRoots, ", "))
			continue
		}
		t.Logf("%s is reached from no root; it backs EXPERIMENTS.md %q", pkg, cited)
	}
}

// reachedPackages returns the repository-relative directories of every
// package of this module that the non-test files of reachRoots import,
// transitively, the roots included.
func reachedPackages(t *testing.T) map[string]bool {
	t.Helper()
	reached := map[string]bool{}
	var queue []string
	for _, pattern := range reachRoots {
		dirs, err := filepath.Glob(filepath.Join(repoRoot, filepath.FromSlash(pattern)))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, dir := range dirs {
			if len(packageImports(t, dir)) == 0 {
				continue
			}
			rel, err := filepath.Rel(repoRoot, dir)
			if err != nil {
				t.Fatal(err)
			}
			found = true
			queue = append(queue, filepath.ToSlash(rel))
		}
		if !found {
			t.Fatalf("root %s matches no package that imports anything: the walk is vacuous", pattern)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if reached[pkg] {
			continue
		}
		reached[pkg] = true
		for _, imp := range packageImports(t, filepath.Join(repoRoot, filepath.FromSlash(pkg))) {
			if imp == module {
				queue = append(queue, ".")
			} else if rest, ok := strings.CutPrefix(imp, module+"/"); ok {
				queue = append(queue, rest)
			}
		}
	}
	return reached
}

// packageImports returns the import paths of the non-test Go files in
// dir, build-constrained files included (over-reaching is the safe
// direction: it can only spare a package, never condemn one).
func packageImports(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var imports []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				imports = append(imports, strings.Trim(imp.Path.Value, `"`))
			}
		}
	}
	return imports
}

// inventoryRow returns the DESIGN.md §2 table row that names pkg by its
// exact path, or "" if none does.
func inventoryRow(inventory, pkg string) string {
	for _, line := range strings.Split(inventory, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, p := range docPathRe.FindAllString(line, -1) {
			if strings.TrimRight(p, "/") == pkg {
				return line
			}
		}
	}
	return ""
}

// experimentsHeadings returns the text of every EXPERIMENTS.md heading.
func experimentsHeadings(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(filepath.Join(repoRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	return headings
}
