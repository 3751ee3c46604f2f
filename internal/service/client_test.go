package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// clientCalls is one Client call per job-API route, reduced to its error.
func clientCalls(c *Client, id string) map[string]func(context.Context) error {
	return map[string]func(context.Context) error{
		"submit":  func(ctx context.Context) error { _, err := c.Submit(ctx, smallJob(1)); return err },
		"status":  func(ctx context.Context) error { _, err := c.Status(ctx, id); return err },
		"stream":  func(ctx context.Context) error { _, err := c.Stream(ctx, id, func([]byte) {}); return err },
		"result":  func(ctx context.Context) error { _, err := c.Result(ctx, id); return err },
		"preempt": func(ctx context.Context) error { _, err := c.Preempt(ctx, id); return err },
		"cancel":  func(ctx context.Context) error { _, err := c.Cancel(ctx, id); return err },
		"stats":   func(ctx context.Context) error { _, err := c.Stats(ctx); return err },
	}
}

// TestClientWireContract replays canned responses to every route. Each
// error code at its own HTTP status decodes to an *APIError with that
// code; a status that disagrees with the code, a body that is not JSON
// or not an error envelope, and a submit status that disagrees with the
// job's state are errors that are not *APIError. Success rows pass.
func TestClientWireContract(t *testing.T) {
	envelope := func(code string) string { return `{"error":{"code":"` + code + `","message":"m"}}` }
	type row struct {
		routes string // "" = every route
		status int
		body   string
		want   string // the *APIError code; "ok" = no error; "" = a plain error
	}
	var rows []row
	for _, code := range []string{ErrBadJSON, ErrInvalidConfig, ErrSaturated, ErrDraining, ErrNotFound, ErrConflict, ErrInternal} {
		rows = append(rows, row{"", httpStatus(code), envelope(code), code})
	}
	rows = append(rows,
		row{"", http.StatusInternalServerError, envelope(ErrSaturated), ""}, // status/code mismatch
		row{"", http.StatusBadGateway, "<html>bad gateway</html>", ""},
		row{"", http.StatusNotFound, `{"detail":"no"}`, ""},
		row{"submit", http.StatusAccepted, `{"id":"j-1","state":"queued"}`, "ok"},
		row{"submit", http.StatusOK, `{"id":"j-1","state":"done","cache_hit":true}`, "ok"},
		row{"submit", http.StatusOK, `{"id":"j-1","state":"queued"}`, ""},
		row{"submit", http.StatusAccepted, `{"id":"j-1","state":"done"}`, ""},
	)
	ctx := testCtx(t)
	for _, r := range rows {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(r.status)
			io.WriteString(w, r.body)
		}))
		for route, call := range clientCalls(NewClient(ts.URL, ts.Client()), "j-1") {
			if r.routes != "" && route != r.routes {
				continue
			}
			err := call(ctx)
			var aerr *APIError
			isAPI := errors.As(err, &aerr)
			switch {
			case r.want == "ok" && err != nil,
				r.want == "" && (err == nil || isAPI),
				r.want != "ok" && r.want != "" && (!isAPI || aerr.Code != r.want):
				t.Errorf("%s given %d %s: err = %v, want %q", route, r.status, r.body, err, r.want)
			}
		}
		ts.Close()
	}
}

// TestClientStream pins that cancelling ctx mid-stream on a job that
// cannot finish returns ctx's error at once.
func TestClientStream(t *testing.T) {
	_, c, p := newParkedServer(t, Options{Workers: 1}, 3)
	sub := submit(t, c, smallJob(3))
	<-p.entered // the job is live and cannot finish until released

	ctx, cancel := context.WithCancel(testCtx(t))
	start := time.Now()
	_, err := c.Stream(ctx, sub.ID, func([]byte) { cancel() })
	if !errors.Is(err, context.Canceled) || time.Since(start) > time.Second {
		t.Fatalf("canceled stream returned %v after %v, want context.Canceled at once", err, time.Since(start))
	}
}
