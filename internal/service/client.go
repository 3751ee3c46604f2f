package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is a typed client for the job API (docs/SERVICE.md), safe for
// concurrent use. Every non-2xx response comes back as an *APIError whose
// HTTP status has been checked against its code; a response that breaks
// the wire contract in any other way is a plain error.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a Client for the server at base, e.g.
// "http://localhost:8070". A nil hc means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Submit posts req to POST /v1/jobs. The response's State tells a
// queued job (HTTP 202) from one born done by a cache hit (HTTP 200); a
// status code that disagrees with the state is an error.
func (c *Client) Submit(ctx context.Context, req JobRequest) (SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("service: submit: %w", err)
	}
	return c.submitRaw(ctx, body)
}

// submitRaw posts body to POST /v1/jobs verbatim, malformed or not.
func (c *Client) submitRaw(ctx context.Context, body []byte) (SubmitResponse, error) {
	var sub SubmitResponse
	code, err := c.call(ctx, http.MethodPost, "/v1/jobs", body, &sub)
	want := http.StatusAccepted
	if sub.State.Terminal() {
		want = http.StatusOK
	}
	if err == nil && code != want {
		err = fmt.Errorf("service: submit: status %d for a %s job, want %d", code, sub.State, want)
	}
	return sub, err
}

// Status fetches GET /v1/jobs/{id}.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.call(ctx, http.MethodGet, jobPath(id), nil, &st)
	return st, err
}

// Preempt asks a running job to yield at its next round barrier
// (POST /v1/jobs/{id}/preempt) and returns its status.
func (c *Client) Preempt(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.call(ctx, http.MethodPost, jobPath(id)+"/preempt", nil, &st)
	return st, err
}

// Cancel cancels a queued, running or preempted job
// (DELETE /v1/jobs/{id}) and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.call(ctx, http.MethodDelete, jobPath(id), nil, &st)
	return st, err
}

// Stats fetches the server's counters (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	_, err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Result fetches a finished job's JSONL series (GET /v1/jobs/{id}/result).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, jobPath(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Stream follows GET /v1/jobs/{id}/stream to its done event and returns
// the terminal Status carried there. onRound receives each round's JSONL
// record including its newline, so the lines concatenate to Result's
// bytes; a finished job replays its whole series. An error event ends the
// stream with its *APIError. Cancelling ctx ends the stream with ctx's
// error.
func (c *Client) Stream(ctx context.Context, id string, onRound func(line []byte)) (Status, error) {
	var st Status
	path := jobPath(id) + "/stream"
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return st, fmt.Errorf("service: %s: Content-Type %q", path, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Bytes()
		if name, ok := bytes.CutPrefix(line, []byte(sseEvent)); ok {
			event = string(name)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte(sseData))
		switch {
		case !ok: // the blank line that ends an event
		case event == eventRound:
			onRound(append(append(make([]byte, 0, len(data)+1), data...), '\n'))
		case event == eventDone:
			if err := json.Unmarshal(data, &st); err != nil {
				return st, fmt.Errorf("service: %s: done event: %w", path, err)
			}
			io.Copy(io.Discard, resp.Body) // the server ends the stream here; reuse the connection
			return st, nil
		case event == eventError:
			aerr := new(APIError)
			if json.Unmarshal(data, aerr) != nil || aerr.Code == "" {
				return st, fmt.Errorf("service: %s: error event without an error: %.200q", path, data)
			}
			io.Copy(io.Discard, resp.Body)
			return st, aerr
		default:
			return st, fmt.Errorf("service: %s: unexpected event %q", path, event)
		}
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("service: %s: %w", path, err)
	}
	return st, fmt.Errorf("service: %s: stream ended before the done event", path)
}

// jobPath is the route of job id.
func jobPath(id string) string { return "/v1/jobs/" + url.PathEscape(id) }

// call sends one request and decodes the 2xx JSON body into out,
// returning the status code.
func (c *Client) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		err = fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	return resp.StatusCode, err
}

// send issues one request and returns a 2xx response with its body open.
// Any other status becomes the *APIError of its {"error": {...}} body,
// or a plain error when there is no envelope or its code has another status.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	// A failed read leaves a short body, which the envelope check rejects.
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error *APIError `json:"error"`
	}
	if json.Unmarshal(raw, &env) != nil || env.Error == nil {
		return nil, fmt.Errorf("service: %s %s: status %d without an error envelope: %.200q", method, path, resp.StatusCode, raw)
	}
	if want := httpStatus(env.Error.Code); resp.StatusCode != want {
		return nil, fmt.Errorf("service: %s %s: status %d carries %v, whose status is %d", method, path, resp.StatusCode, env.Error, want)
	}
	return nil, env.Error
}
