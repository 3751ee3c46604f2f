package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

// flagNames collects every flag registered on the default FlagSet —
// the package-level flag.Xxx declarations in main.go.
func flagNames() []string {
	var names []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") { // the test binary's own flags
			return
		}
		names = append(names, f.Name)
	})
	return names
}

// docComment returns main.go's package doc comment (everything before
// the `package main` line) — the text `go doc` and the README quote.
func docComment(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatalf("read main.go: %v", err)
	}
	text := string(src)
	idx := strings.Index(text, "\npackage main")
	if idx < 0 {
		t.Fatal("main.go has no package clause")
	}
	return text[:idx]
}

// TestDocCommentListsEveryFlag pins the command's usage text to the
// actual flag set: adding a flag without documenting it in the doc
// comment fails here, which is how the usage block stays current.
func TestDocCommentListsEveryFlag(t *testing.T) {
	doc := docComment(t)
	for _, name := range flagNames() {
		if !strings.Contains(doc, "-"+name) {
			t.Errorf("flag -%s is not mentioned in the main.go doc comment", name)
		}
	}
}

// TestREADMEFlagTableListsEveryFlag pins the README's nocsim flag
// table (the marker-delimited block) to the actual flag set, both ways:
// every registered flag has a row, and every flag a row names in its
// first column is registered.
func TestREADMEFlagTableListsEveryFlag(t *testing.T) {
	const (
		readme = "../../README.md"
		begin  = "<!-- nocsim-flags:begin -->"
		end    = "<!-- nocsim-flags:end -->"
	)
	src, err := os.ReadFile(readme)
	if err != nil {
		t.Fatalf("read %s: %v", readme, err)
	}
	text := string(src)
	lo := strings.Index(text, begin)
	hi := strings.Index(text, end)
	if lo < 0 || hi < 0 || hi < lo {
		t.Fatalf("%s is missing the %s / %s markers", readme, begin, end)
	}
	table := text[lo+len(begin) : hi]
	registered := map[string]bool{}
	for _, name := range flagNames() {
		registered[name] = true
		if !strings.Contains(table, "`-"+name+"`") {
			t.Errorf("flag -%s is missing from the README nocsim flag table", name)
		}
	}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range tableFlag.FindAllStringSubmatch(cells[1], -1) {
			if !registered[m[1]] {
				t.Errorf("the README nocsim flag table lists -%s, which nocsim does not register", m[1])
			}
		}
	}
}

// tableFlag matches one backquoted flag name in a flag-table cell.
var tableFlag = regexp.MustCompile("`-([a-z-]+)`")

// setFlags resets every flag to its default and parses args, as a fresh
// invocation would; the cleanup restores the defaults.
func setFlags(t *testing.T, args ...string) {
	t.Helper()
	reset := func() {
		flag.CommandLine.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				f.Value.Set(f.DefValue)
			}
		})
	}
	reset()
	t.Cleanup(reset)
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsMatchJobRequest pins that nocsim's flags and a nocsimd
// JobRequest with the same values name one sim.Scenario — defaults
// included — so a job is the experiment nocsim runs by construction
// (service's TestLocalRunEqualsServed pins that the runner then gives
// the served bytes).
func TestFlagsMatchJobRequest(t *testing.T) {
	base := service.JobRequest{Width: 4, Height: 4, Src: 5, Dst: 11, P: 0.5, Seed: 1}
	with := func(mut func(r *service.JobRequest)) service.JobRequest {
		r := base
		mut(&r)
		return r
	}
	cases := []struct {
		name string
		args []string
		req  service.JobRequest
	}{
		{"defaults", nil, base},
		{"dead tiles", []string{"-dead-tiles", "3"}, with(func(r *service.JobRequest) { r.Fault.DeadTiles = 3 })},
		{"dead links", []string{"-dead-links", "2"}, with(func(r *service.JobRequest) { r.Fault.DeadLinks = 2 })},
		{"upset", []string{"-upset", "0.1"}, with(func(r *service.JobRequest) { r.Fault.Upset = 0.1 })},
		{"overflow", []string{"-overflow", "0.05"}, with(func(r *service.JobRequest) { r.Fault.Overflow = 0.05 })},
		{"sigma", []string{"-sigma", "0.5"}, with(func(r *service.JobRequest) { r.Fault.Sigma = 0.5 })},
		{"payload", []string{"-payload", "40"}, with(func(r *service.JobRequest) { r.Payload = 40 })},
		{"max rounds", []string{"-max-rounds", "500"}, with(func(r *service.JobRequest) { r.MaxRounds = 500 })},
		{"fabric and protocol", []string{"-width", "8", "-height", "8", "-src", "0", "-dst", "63", "-p", "0.3", "-ttl", "64", "-seed", "2003"},
			service.JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.3, TTL: 64, Seed: 2003}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setFlags(t, tc.args...)
			if got, want := scenario(), tc.req.Scenario(); !reflect.DeepEqual(got, want) {
				t.Fatalf("flags %q give\n%+v\nthe request gives\n%+v", tc.args, got, want)
			}
		})
	}

	// -literal-upsets has no request field: it changes only its own
	// Config field.
	setFlags(t, "-literal-upsets")
	got := scenario()
	if !got.Config.Fault.LiteralUpsets {
		t.Fatalf("-literal-upsets gives %+v", got.Config)
	}
	got.Config.Fault.LiteralUpsets = false
	if want := base.Scenario(); !reflect.DeepEqual(got, want) {
		t.Fatalf("-literal-upsets changed more than its own field:\n%+v\nwant\n%+v", got, want)
	}
}
