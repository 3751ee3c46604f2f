package docaudit

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// repoRoot is the repository root, relative to this directory.
const repoRoot = "../.."

// docPathRe matches a repository path under internal/ as the docs write
// it: slash-separated components, optionally ending in a lowercase file
// extension. A qualified identifier (`internal/snapshot.FuzzRestore`)
// matches only its package path, and a trailing "/..." leaves a
// trailing slash.
var docPathRe = regexp.MustCompile(`internal/\w[\w/-]*(?:\.[a-z]+\b)?`)

// subtreeRe matches an `internal/<prefix>/...` row, which stands for
// every package below the prefix.
var subtreeRe = regexp.MustCompile(`internal/(\w[\w/-]*)/\.\.\.`)

// pathDocs returns the documents whose internal/ paths must exist: the
// README, DESIGN.md, EXPERIMENTS.md, PAPER.md's subsystem table and the
// docs/ deep dives. CHANGES.md and ROADMAP.md are history and may name
// packages that are gone.
func pathDocs(t *testing.T) []string {
	t.Helper()
	deep, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"}
	for i, d := range docs {
		docs[i] = filepath.Join(repoRoot, d)
	}
	return append(docs, deep...)
}

// TestDocPathsExist fails for every internal/ directory or file that
// README.md (its text or its layout tree), DESIGN.md, EXPERIMENTS.md,
// PAPER.md or a docs/*.md page names but the tree does not hold, so a deleted
// package cannot stay advertised.
func TestDocPathsExist(t *testing.T) {
	checked := 0
	for _, doc := range pathDocs(t) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		paths := docPathRe.FindAllString(string(text), -1)
		if filepath.Base(doc) == "README.md" {
			paths = append(paths, layoutPaths(string(text))...)
		}
		for _, p := range paths {
			checked++
			if _, err := os.Stat(filepath.Join(repoRoot, strings.TrimRight(p, "/"))); err != nil {
				t.Errorf("%s names %s, which does not exist", filepath.Base(doc), p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("the docs name no internal/ path — the check is vacuous")
	}
}

// layoutEntryRe matches a first-level entry of the README's layout tree
// ("  stats/, rng/   description"): two spaces, then comma-separated
// names.
var layoutEntryRe = regexp.MustCompile(`^  ([^\s,]+(?:, [^\s,]+)*)`)

// layoutPaths returns the internal/ paths of the README's layout tree:
// the entries indented under its "internal/" line, up to the next
// unindented line.
func layoutPaths(readme string) []string {
	var paths []string
	in := false
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case line == "internal/":
			in = true
		case in && !strings.HasPrefix(line, " "):
			return paths
		case in:
			if m := layoutEntryRe.FindStringSubmatch(line); m != nil {
				for _, name := range strings.Split(m[1], ", ") {
					paths = append(paths, "internal/"+name)
				}
			}
		}
	}
	return paths
}

// TestInventoryListsEveryPackage fails for every directory under
// internal/ holding non-test Go files that DESIGN.md §2's inventory
// names neither by its path nor under an `internal/<prefix>/...` row.
func TestInventoryListsEveryPackage(t *testing.T) {
	text, err := os.ReadFile(filepath.Join(repoRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	inventory := designSection(t, string(text), "## 2.")
	named := map[string]bool{}
	for _, p := range docPathRe.FindAllString(inventory, -1) {
		named[strings.TrimRight(p, "/")] = true
	}
	var subtrees []string
	for _, m := range subtreeRe.FindAllStringSubmatch(inventory, -1) {
		subtrees = append(subtrees, "internal/"+m[1]+"/")
	}
	for _, pkg := range packageDirs(t) {
		if named[pkg] {
			continue
		}
		covered := false
		for _, s := range subtrees {
			covered = covered || strings.HasPrefix(pkg, s)
		}
		if !covered {
			t.Errorf("DESIGN.md §2 does not list %s", pkg)
		}
	}
}

// designSection returns the text of the section whose heading starts
// with heading, up to the next level-2 heading.
func designSection(t *testing.T, text, heading string) string {
	t.Helper()
	start := strings.Index(text, "\n"+heading)
	if start < 0 {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	body := text[start+1:]
	if end := strings.Index(body[len(heading):], "\n## "); end >= 0 {
		body = body[:len(heading)+end]
	}
	return body
}

// packageDirs returns, sorted and slash-separated from the repository
// root, every directory under internal/ that holds a non-test Go file.
func packageDirs(t *testing.T) []string {
	t.Helper()
	set := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(repoRoot, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
			if err != nil {
				return err
			}
			set[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		t.Fatal("no package under internal/ — the check is vacuous")
	}
	return dirs
}
