package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// APIError is the structured error body every non-2xx response
// carries, wrapped as {"error": {...}}. Code is a stable
// machine-readable discriminator (see the constants below); Message is
// human-readable detail.
type APIError struct {
	// Code is the stable error discriminator clients switch on.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// The stable error codes. Clients switch on these, never on Message.
const (
	// ErrBadJSON: the request body was not syntactically valid JSON for
	// the expected shape (HTTP 400).
	ErrBadJSON = "bad_json"
	// ErrInvalidConfig: the job config parsed but names an invalid or
	// out-of-policy simulation (HTTP 400).
	ErrInvalidConfig = "invalid_config"
	// ErrSaturated: admission control rejected the job — the queue is
	// full (HTTP 429). Retry with backoff.
	ErrSaturated = "saturated"
	// ErrDraining: the server is draining toward shutdown and accepts
	// no new jobs (HTTP 503).
	ErrDraining = "draining"
	// ErrNotFound: no such job (HTTP 404).
	ErrNotFound = "not_found"
	// ErrConflict: the operation does not apply to the job's current
	// state, e.g. fetching the result of an unfinished job (HTTP 409).
	ErrConflict = "conflict"
	// ErrInternal: the simulation failed server-side (HTTP 500).
	ErrInternal = "internal"
)

// apiErrorf builds an APIError.
func apiErrorf(code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// httpStatus maps an error code onto its HTTP status.
func httpStatus(code string) int {
	switch code {
	case ErrBadJSON, ErrInvalidConfig:
		return http.StatusBadRequest
	case ErrSaturated:
		return http.StatusTooManyRequests
	case ErrDraining:
		return http.StatusServiceUnavailable
	case ErrNotFound:
		return http.StatusNotFound
	case ErrConflict:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// FaultSpec is the JSON shape of a job's fault model — the Chapter 2
// knobs a client may set.
type FaultSpec struct {
	// DeadTiles is the number of tiles to crash before round 0.
	DeadTiles int `json:"dead_tiles,omitempty"`
	// DeadLinks is the number of links to crash before round 0.
	DeadLinks int `json:"dead_links,omitempty"`
	// Upset is the per-transmission data-upset probability in [0, 1].
	Upset float64 `json:"upset,omitempty"`
	// Overflow is the per-reception buffer-overflow probability in [0, 1].
	Overflow float64 `json:"overflow,omitempty"`
	// Sigma is the synchronization error σ/T_R, >= 0.
	Sigma float64 `json:"sigma,omitempty"`
}

// The job priorities. Interactive jobs preempt batch jobs: when every
// worker is busy and an interactive job waits, one running batch job is
// asked to yield at its next round barrier.
const (
	// PriorityInteractive is the default: small, latency-sensitive jobs.
	PriorityInteractive = "interactive"
	// PriorityBatch marks long jobs that may be preempted at round
	// barriers to make room for interactive traffic.
	PriorityBatch = "batch"
)

// JobRequest is the JSON body of POST /v1/jobs: one src→dst gossip
// simulation on a W×H mesh, the experiment cmd/nocsim runs once from the
// command line (see Scenario). Zero-valued optional fields take the
// documented defaults during normalization.
type JobRequest struct {
	// Width is the mesh width in tiles (required, >= 1).
	Width int `json:"width"`
	// Height is the mesh height in tiles (required, >= 1).
	Height int `json:"height"`
	// Src is the source tile (0-based, row-major).
	Src int `json:"src"`
	// Dst is the destination tile (0-based, row-major).
	Dst int `json:"dst"`
	// P is the per-port forwarding probability in [0, 1].
	P float64 `json:"p"`
	// TTL is the message time-to-live in rounds (default core.DefaultTTL).
	TTL int `json:"ttl,omitempty"`
	// Seed makes the run reproducible (part of the cache key).
	Seed uint64 `json:"seed"`
	// MaxRounds is the per-job round budget (default 200, capped by the
	// server's Options.MaxJobRounds).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Payload is the message payload size in bytes (default 16).
	Payload int `json:"payload,omitempty"`
	// Priority is "interactive" (default) or "batch".
	Priority string `json:"priority,omitempty"`
	// Fault is the fault model (zero value = fault free).
	Fault FaultSpec `json:"fault,omitempty"`
}

// normalize fills the documented defaults in place.
func (r *JobRequest) normalize() {
	if r.TTL <= 0 {
		r.TTL = core.DefaultTTL
	}
	if r.MaxRounds <= 0 {
		r.MaxRounds = 200
	}
	if r.Payload <= 0 {
		r.Payload = 16
	}
	if r.Priority == "" {
		r.Priority = PriorityInteractive
	}
}

// validate checks the normalized request against the engine's rules and
// the server's admission policy (maxTiles fabric bound, maxRounds
// per-job round-budget cap). It returns nil or an invalid_config error.
func (r *JobRequest) validate(maxTiles, maxRounds int) *APIError {
	if r.Width < 1 || r.Height < 1 {
		return apiErrorf(ErrInvalidConfig, "width/height must be >= 1, got %dx%d", r.Width, r.Height)
	}
	tiles := r.Width * r.Height
	if tiles > maxTiles {
		return apiErrorf(ErrInvalidConfig, "%dx%d = %d tiles exceeds the server's %d-tile bound", r.Width, r.Height, tiles, maxTiles)
	}
	if r.Src < 0 || r.Src >= tiles || r.Dst < 0 || r.Dst >= tiles {
		return apiErrorf(ErrInvalidConfig, "src/dst out of range for a %dx%d grid", r.Width, r.Height)
	}
	if r.TTL > 255 {
		return apiErrorf(ErrInvalidConfig, "ttl = %d exceeds 255", r.TTL)
	}
	if r.MaxRounds > maxRounds {
		return apiErrorf(ErrInvalidConfig, "max_rounds = %d exceeds the server's per-job budget %d", r.MaxRounds, maxRounds)
	}
	if r.Payload > packet.MaxPayload {
		return apiErrorf(ErrInvalidConfig, "payload = %d exceeds %d bytes", r.Payload, packet.MaxPayload)
	}
	if r.Priority != PriorityInteractive && r.Priority != PriorityBatch {
		return apiErrorf(ErrInvalidConfig, "priority must be %q or %q", PriorityInteractive, PriorityBatch)
	}
	cfg := r.Scenario().Config // checks p and the fault model
	if err := cfg.Validate(); err != nil {
		return apiErrorf(ErrInvalidConfig, "%v", err)
	}
	return nil
}

// Scenario is the experiment the request names, defaults filled: the
// sim.Scenario cmd/nocsim builds from the same flag values.
func (r *JobRequest) Scenario() sim.Scenario {
	c := *r
	c.normalize()
	src, dst := packet.TileID(c.Src), packet.TileID(c.Dst)
	return sim.Scenario{
		Config: core.Config{
			Topo: topology.NewGrid(c.Width, c.Height), P: c.P, TTL: uint8(c.TTL), MaxRounds: c.MaxRounds, Seed: c.Seed,
			Fault: fault.Model{
				DeadTiles: c.Fault.DeadTiles, DeadLinks: c.Fault.DeadLinks,
				PUpset: c.Fault.Upset, POverflow: c.Fault.Overflow, SigmaSync: c.Fault.Sigma,
				Protect: []packet.TileID{src, dst},
			},
		},
		Src: src, Dst: dst, Kind: 1, Payload: c.Payload, Rounds: c.MaxRounds,
		Tech: energy.NoCLink025, StopAtDelivery: true,
	}
}

// Key derives the request's content-addressed result identity: the seed
// and round budget in the clear, so a cache directory is inspectable,
// then the first 128 bits of the SHA-256 of the canonical request JSON.
// That JSON holds every field that decides the result — fabric,
// protocol knobs, fault model, payload size — so requests that differ
// in any of them never share a cache entry or a singleflight slot. The
// canonical JSON is also stored in each cache entry and compared on
// every read, so even a hash collision costs a re-simulation, never a
// cross-served result (see Cache.Get).
func (r *JobRequest) Key() string {
	sum := sha256.Sum256(r.canonical())
	return fmt.Sprintf("%016x-r%d-%x", r.Seed, r.MaxRounds, sum[:16])
}

// canonical renders the normalized request as its canonical JSON — the
// byte identity the cache key hashes and the cache's anti-cross-serve
// guard compares.
// encoding/json renders struct fields in declaration order, so equal
// requests render equal bytes. Priority is excluded: it is a
// scheduling class, not part of the simulation's identity, and a
// result computed for a batch submission is exactly the result an
// interactive submission of the same config would compute.
func (r *JobRequest) canonical() []byte {
	c := *r
	c.Priority = ""
	b, err := json.Marshal(&c)
	if err != nil {
		// A JobRequest holds only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("service: canonical marshal: %v", err))
	}
	return b
}
