package main

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

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

// TestDocCommentListsEveryFlag pins the daemon's usage text to the
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

// TestREADMEFlagTableListsEveryFlag pins the README's nocsimd flag
// table (the marker-delimited block) to the actual flag set.
func TestREADMEFlagTableListsEveryFlag(t *testing.T) {
	const (
		readme = "../../README.md"
		begin  = "<!-- nocsimd-flags:begin -->"
		end    = "<!-- nocsimd-flags:end -->"
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
	for _, name := range flagNames() {
		if !strings.Contains(table, "`-"+name+"`") {
			t.Errorf("flag -%s is missing from the README nocsimd flag table", name)
		}
	}
}

// TestServiceDocExists pins the doc comment's pointer: docs/SERVICE.md
// must exist as long as main.go references it.
func TestServiceDocExists(t *testing.T) {
	if !strings.Contains(docComment(t), "docs/SERVICE.md") {
		t.Skip("doc comment no longer references docs/SERVICE.md")
	}
	if _, err := os.Stat("../../docs/SERVICE.md"); err != nil {
		t.Fatalf("main.go references docs/SERVICE.md: %v", err)
	}
}

// TestShutdownBoundedWithOpenStreams pins the shutdown sequence's bound:
// with streams open on a running job and on a queued one, both outliving
// the drain deadline, shutdown returns within drain + grace and every
// stream ends. The queued job's stream is the hard case: closing the
// server cancels the job but never starts it, so its handler waits until
// its connection is closed.
func TestShutdownBoundedWithOpenStreams(t *testing.T) {
	srv, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer(srv)
	streaming := make(chan struct{})
	h := httpSrv.Handler
	httpSrv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			streaming <- struct{}{}
		}
		h.ServeHTTP(w, r)
	})
	go httpSrv.Serve(ln)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := service.NewClient("http://"+ln.Addr().String(), nil)
	ended := make(chan error, 2)
	for seed := uint64(1); seed <= 2; seed++ {
		// A message addressed to its own source is never delivered: the
		// 256x256 flood runs until its TTL runs out: seconds, not the
		// milliseconds of the drain deadline.
		sub, err := c.Submit(ctx, service.JobRequest{
			Width: 256, Height: 256, Src: 32896, Dst: 32896, P: 0.5, TTL: 255, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := c.Stream(ctx, sub.ID, func([]byte) {})
			ended <- err
		}()
		<-streaming
	}

	const drain, grace = 20 * time.Millisecond, 200 * time.Millisecond
	t0 := time.Now()
	shutdown(srv, httpSrv, drain, grace)
	// The slack covers the running job's last round before it sees the
	// cancel at its barrier.
	if took := time.Since(t0); took > drain+grace+time.Second {
		t.Fatalf("shutdown took %v, want within drain %v + grace %v", took, drain, grace)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-ended:
		case <-time.After(5 * time.Second):
			t.Fatal("a stream is still open after shutdown")
		}
	}
}
