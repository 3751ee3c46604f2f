package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
)

// buildDir is where build products and scratch data go: inside the
// checkout (the benchmark writes nowhere else) and named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildDaemon compiles cmd/nocsimd from the checkout's source. With a
// warm build cache this is a fraction of a second, so every repetition
// pays it as part of its set-up.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "nocsimd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/nocsimd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned nocsimd with fresh cache and checkpoint
// directories.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	dir    string // scratch directory holding cache/ and ckpt/
	client *http.Client
	exited chan struct{} // closed once cmd.Wait has returned
}

var servingRE = regexp.MustCompile(`serving on (http://[^ ]+)`)

// startDaemon builds and spawns nocsimd on a free loopback port and
// waits for the first healthy /healthz.
func startDaemon(e *env, name string) (*daemon, error) {
	bin, err := buildDaemon(e.root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(buildDir(e.root), "run", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), e.rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon scratch dir: %w", err)
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(e.nproc),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-ckpt-dir", filepath.Join(dir, "ckpt"))
	killWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon stderr: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nocsimd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	d.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			// Every client goroutine keeps its connection: without this
			// the default of two idle connections per host would make
			// the benchmark measure TCP set-up.
			MaxIdleConns: 64, MaxIdleConnsPerHost: 64,
		},
	}
	// The daemon announces its listen address on stderr; everything it
	// logs afterwards is drained so it can never block on the pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("nocsimd exited before serving")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("nocsimd did not announce its address")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("nocsimd never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon (SIGTERM), waits for it to exit — killing it
// if the drain stalls — and removes its scratch directory.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// rssMB is the daemon's peak resident set so far.
func (d *daemon) rssMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// sustainedRSS samples the daemon's resident set every 20 ms until stop
// is closed, then sends the 90th percentile of the samples: the
// footprint the daemon holds under load, which a single allocation
// burst does not move.
func (d *daemon) sustainedRSS(stop <-chan struct{}, out chan<- float64) {
	var samples []float64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		samples = append(samples, currentRSSMB(d.cmd.Process.Pid))
		select {
		case <-stop:
			out <- percentile(sortedCopy(samples), 90)
			return
		case <-tick.C:
		}
	}
}

// stats fetches /v1/stats.
func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// jobOutcome is what one submit → stream → result operation observed.
type jobOutcome struct {
	id       string
	sub      service.SubmitResponse
	result   []byte // GET .../result body
	status   service.Status
	t        [6]time.Time // submit start/end, stream open, first round event, stream end, result end
	sawRound bool
}

// Indices into jobOutcome.t.
const (
	tSubmit0 = iota
	tSubmit1
	tStream0
	tFirstEvent
	tStream1
	tResult1
)

var (
	sseDone = []byte("event: done")
	sseData = []byte("data: ")
)

// runJob performs one full client operation and checks what every job
// must satisfy: expected statuses, a final state of done, and the
// concatenated SSE round payloads equal to the result body byte for
// byte. Any error is a failed operation.
func (d *daemon) runJob(req *service.JobRequest) (*jobOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	o := &jobOutcome{}
	body, err := json.Marshal(req)
	if err != nil {
		return o, err
	}

	o.t[tSubmit0] = time.Now()
	raw, code, err := d.do(ctx, http.MethodPost, "/v1/jobs", body)
	o.t[tSubmit1] = time.Now()
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return o, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &o.sub); err != nil {
		return o, fmt.Errorf("submit response: %w", err)
	}
	o.id = o.sub.ID

	streamed, err := d.stream(ctx, o)
	if err != nil {
		return o, fmt.Errorf("stream %s: %w", o.id, err)
	}
	if o.status.State != service.StateDone {
		return o, fmt.Errorf("job %s ended %s", o.id, o.status.State)
	}

	o.result, code, err = d.do(ctx, http.MethodGet, "/v1/jobs/"+o.id+"/result", nil)
	o.t[tResult1] = time.Now()
	if err != nil {
		return o, fmt.Errorf("result %s: %w", o.id, err)
	}
	if code != http.StatusOK {
		return o, fmt.Errorf("result %s: status %d", o.id, code)
	}
	if !bytes.Equal(streamed, o.result) {
		return o, fmt.Errorf("job %s: streamed payloads (%d B) differ from result (%d B)", o.id, len(streamed), len(o.result))
	}
	return o, nil
}

// do issues one request and reads the whole response.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// stream follows GET .../stream to the done event and returns the
// concatenated round payloads, each with the newline the JSONL artifact
// carries.
func (d *daemon) stream(ctx context.Context, o *jobOutcome) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+o.id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	o.t[tStream0] = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out []byte
	inDone := false // the data line that follows belongs to the done event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, sseDone):
			inDone = true
		case !bytes.HasPrefix(line, sseData): // "event: round" or the blank separator
		case !inDone:
			if !o.sawRound {
				o.sawRound = true
				o.t[tFirstEvent] = time.Now()
			}
			out = append(out, line[len(sseData):]...)
			out = append(out, '\n')
		default:
			o.t[tStream1] = time.Now()
			if err := json.Unmarshal(line[len(sseData):], &o.status); err != nil {
				return nil, fmt.Errorf("done event: %w", err)
			}
			// Drain to EOF so the connection goes back to the pool.
			io.Copy(io.Discard, resp.Body)
			return out, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream closed before the done event")
}

// trace records the operation's client-side spans, all sharing the job
// ID, under a root that starts at start.
func (o *jobOutcome) trace(tr *Tracer, start time.Time) {
	if tr == nil {
		return
	}
	root := tr.Add("job", o.id, start, o.t[tResult1], -1)
	tr.Add("service.submit", o.id, o.t[tSubmit0], o.t[tSubmit1], root)
	st := tr.Add("service.stream", o.id, o.t[tStream0], o.t[tStream1], root)
	if o.sawRound {
		// Stream open to first round event: queue wait plus job set-up.
		tr.Add("service.first_event", o.id, o.t[tStream0], o.t[tFirstEvent], st)
	}
	tr.Add("service.result", o.id, o.t[tStream1], o.t[tResult1], root)
}
