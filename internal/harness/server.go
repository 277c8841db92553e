package harness

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"sync/atomic"

	"ghostwriter/internal/fault"
)

// maxManifestBytes bounds one POST /v1/sweep body. A WorkItem is ~1 KiB of
// JSON, so this admits sweeps of tens of thousands of cells while keeping
// a hostile client from exhausting server memory.
const maxManifestBytes = 64 << 20

// drainRetryAfter is the Retry-After hint on 503s served while draining:
// long enough for a rolling restart to finish, short enough that a
// submitting client retries against the replacement promptly.
const drainRetryAfter = "5"

// DrainGate is the shutdown switch a draining gwcached flips: once
// Drain is called, endpoints that create new work (POST /v1/sweep,
// POST /v1/claim) answer 503 with a Retry-After header instead of
// accepting work the dying process would drop, while completions and
// reads keep flowing so in-flight cells land. Safe for concurrent use.
type DrainGate struct {
	draining atomic.Bool
}

// Drain flips the gate; there is no way back (the process is exiting).
func (g *DrainGate) Drain() { g.draining.Store(true) }

// Draining reports whether the gate has been flipped.
func (g *DrainGate) Draining() bool { return g.draining.Load() }

// reject503 answers one gated request.
func reject503(w http.ResponseWriter) {
	w.Header().Set("Retry-After", drainRetryAfter)
	http.Error(w, "draining: retry against the restarted server", http.StatusServiceUnavailable)
}

// ServerConfig assembles a gwcached HTTP handler. Backend is required;
// everything else is optional.
type ServerConfig struct {
	// Backend is the content-addressed key→result store.
	Backend CacheBackend
	// Durable enables the fleet work-dispatch protocol over its lease
	// table; the handler persists (fsyncs) its WAL on submission, claim,
	// and completion boundaries, failing the request when the journal does
	// so the client retries instead of trusting a lost record.
	Durable *DurableDispatcher
	// Gate, when set, lets a draining process reject work-creating
	// requests with 503 + Retry-After (see DrainGate).
	Gate *DrainGate
	// Fault threads the deterministic fault injector through the handler:
	// point "http.request" can delay, fail, or crash (abort the connection
	// of) any request, and "http.response" can truncate a response body.
	Fault *fault.Injector
}

// truncatedWriter cuts a response body after limit bytes — the injected
// equivalent of a server falling over mid-response.
type truncatedWriter struct {
	http.ResponseWriter
	remain int
}

func (t *truncatedWriter) Write(p []byte) (int, error) {
	if t.remain <= 0 {
		return len(p), nil // swallow the rest; the client sees a short body
	}
	n := len(p)
	if n > t.remain {
		n = t.remain
	}
	if _, err := t.ResponseWriter.Write(p[:n]); err != nil {
		return 0, err
	}
	t.remain -= n
	return len(p), nil
}

// withFaults wraps h with the injector's HTTP points; nil-injector is free.
func withFaults(inj *fault.Injector, h http.Handler) http.Handler {
	if inj == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if err := inj.Op("http.request"); err != nil {
			if errors.Is(err, fault.ErrCrashed) {
				// Abort the connection without a response: to the client
				// this is indistinguishable from the process dying.
				panic(http.ErrAbortHandler)
			}
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
			return
		}
		if n, ok := inj.ResponseLimit("http.response"); ok {
			w = &truncatedWriter{ResponseWriter: w, remain: n}
		}
		h.ServeHTTP(w, req)
	})
}

// cacheStatser is implemented by backends that track activity counters.
type cacheStatser interface {
	Stats() CacheStats
}

// SweepManifest is the POST /v1/sweep request body: the cells of one sweep.
type SweepManifest struct {
	Cells []WorkItem `json:"cells"`
}

// SubmitResponse is the POST /v1/sweep response.
type SubmitResponse struct {
	SubmitSummary
	Status SweepStatus `json:"status"`
}

// ClaimRequest is the POST /v1/claim request body.
type ClaimRequest struct {
	// Worker identifies the claimant for lease tracking; required.
	Worker string `json:"worker"`
	// Max bounds the batch size (<= 0 claims one cell).
	Max int `json:"max"`
}

// ClaimResponse is the POST /v1/claim response. An empty Items with an
// incomplete Status means every unfinished cell is leased elsewhere — back
// off and claim again; with Status.Complete() the sweep is drained and the
// worker can exit.
type ClaimResponse struct {
	Items []WorkItem `json:"items"`
	// TTLMS is the lease duration in milliseconds; workers heartbeat well
	// inside it (the WorkerPool renews every TTL/3).
	TTLMS  int64       `json:"ttlMs"`
	Status SweepStatus `json:"status"`
}

// HeartbeatRequest is the POST /v1/heartbeat request body.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Keys   []string `json:"keys"`
}

// HeartbeatResponse lists which leases were renewed and which are lost
// (expired and reclaimed, or already complete).
type HeartbeatResponse struct {
	Renewed []string `json:"renewed,omitempty"`
	Lost    []string `json:"lost,omitempty"`
	TTLMS   int64    `json:"ttlMs"`
}

// NewServer builds the gwcached handler from cfg: a content-addressed
// key→result store over cfg.Backend —
//
//	GET  /v1/cell/<key>  → 200 + the RunResult's record, or 404
//	PUT  /v1/cell/<key>  → 204 on store, 400 on malformed key/body
//	GET  /v1/stats       → backend counters (zeros when it tracks none)
//	GET  /healthz        → load-balancer probe
//
// and, when cfg.Durable is set, the fleet work-dispatch protocol —
//
//	POST /v1/sweep      → submit a grid manifest (cells not already stored
//	                      are queued; cached ones are marked done)
//	POST /v1/claim      → lease a batch of pending cells
//	POST /v1/heartbeat  → renew leases mid-simulation
//	GET  /v1/sweep      → sweep status counters
//
// plus the drain gate and the fault-injection middleware. A cell body is
// the record a pack stores (see Cache). Keys are validated to the
// Spec.Key() shape and a PUT body must be one record of the URL's key in
// this build's layout holding a non-empty RunResult, so no client can plant
// undecodable, misfiled, zero-filled or all-zero results the fleet would
// then trust. Completion has no endpoint of its own: the idempotent PUT
// both stores the result and marks the cell done, so at-least-once
// execution (a lease can expire and redispatch a cell still being
// simulated) converges on exactly-once-observable results. The handler
// persists the WAL on the three boundaries a client acts on: a submission
// is acknowledged only once its cells are durable, a claim only once its
// leases are (so a restarted server re-grants rather than double-dispatches
// them), and a completion only once its record is — the property that makes
// kill -9 lose nothing.
func NewServer(cfg ServerConfig) http.Handler {
	backend := cfg.Backend
	d := cfg.Durable
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		// A draining server reports unhealthy so failover clients elect a
		// standby instead of sending a rolling restart new work.
		if cfg.Gate != nil && cfg.Gate.Draining() {
			reject503(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, req *http.Request) {
		// A backend without counters answers zeros rather than 404 so fleet
		// monitoring scripts never special-case the status code.
		var stats CacheStats
		if cs, ok := backend.(cacheStatser); ok {
			stats = cs.Stats()
		}
		writeJSONResponse(w, stats)
	})
	mux.HandleFunc("GET /v1/cell/{key}", func(w http.ResponseWriter, req *http.Request) {
		key := req.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "malformed key", http.StatusBadRequest)
			return
		}
		r, ok := backend.Get(key)
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(encodeRecord(key, r))
	})
	mux.HandleFunc("PUT /v1/cell/{key}", func(w http.ResponseWriter, req *http.Request) {
		key := req.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "malformed key", http.StatusBadRequest)
			return
		}
		b, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxEntryBytes))
		r, rerr := readRecord(key, b)
		if err = errors.Join(err, rerr); err != nil {
			http.Error(w, "body is not a record of this key: "+err.Error(), http.StatusBadRequest)
			return
		}
		if r.IsZero() {
			http.Error(w, "empty RunResult", http.StatusBadRequest)
			return
		}
		if err := backend.Put(key, r); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if d != nil {
			// A result outside any sweep, or a duplicate, completes nothing
			// and journals nothing; Persist still flushes whatever the
			// journal holds before the PUT is acknowledged.
			d.Complete(key)
			if err := d.Persist(); err != nil {
				// The store took the result but its completion record is not
				// durable. Fail the request: the publish is idempotent, the
				// worker retries, and recovery's store backstop covers a
				// crash in between.
				log.Printf("harness: completion journal for %s failed: %v", key, err)
				http.Error(w, "completion journal failed; retry", http.StatusInternalServerError)
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
	})
	if d == nil {
		return withFaults(cfg.Fault, mux)
	}
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Gate != nil && cfg.Gate.Draining() {
			reject503(w)
			return
		}
		var man SweepManifest
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxManifestBytes))
		if err := dec.Decode(&man); err != nil {
			http.Error(w, "body is not a sweep manifest: "+err.Error(), http.StatusBadRequest)
			return
		}
		sum := d.Submit(man.Cells, func(key string) bool {
			_, ok := backend.Get(key)
			return ok
		})
		if err := d.Persist(); err != nil {
			// The manifest is in memory but not durable; make the client
			// resubmit (idempotent) rather than trust a lossy acceptance.
			log.Printf("harness: submission journal failed: %v", err)
			http.Error(w, "submission journal failed; retry", http.StatusInternalServerError)
			return
		}
		writeJSONResponse(w, SubmitResponse{SubmitSummary: sum, Status: d.Status()})
	})
	mux.HandleFunc("POST /v1/claim", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Gate != nil && cfg.Gate.Draining() {
			reject503(w)
			return
		}
		var cr ClaimRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxEntryBytes))
		if err := dec.Decode(&cr); err != nil || cr.Worker == "" {
			http.Error(w, "body is not a claim (worker required)", http.StatusBadRequest)
			return
		}
		items, status := d.Claim(cr.Worker, cr.Max)
		if err := d.Persist(); err != nil {
			// Un-journaled leases would be re-dispatched by a restarted
			// server while the claimant still works them — the double-
			// simulation the WAL exists to prevent. Refuse the claim; the
			// in-memory leases expire by TTL.
			log.Printf("harness: claim journal for %s failed: %v", cr.Worker, err)
			http.Error(w, "claim journal failed; retry", http.StatusInternalServerError)
			return
		}
		writeJSONResponse(w, ClaimResponse{Items: items, TTLMS: d.TTL().Milliseconds(), Status: status})
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, req *http.Request) {
		var hr HeartbeatRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxEntryBytes))
		if err := dec.Decode(&hr); err != nil || hr.Worker == "" {
			http.Error(w, "body is not a heartbeat (worker required)", http.StatusBadRequest)
			return
		}
		renewed, lost := d.Heartbeat(hr.Worker, hr.Keys)
		writeJSONResponse(w, HeartbeatResponse{Renewed: renewed, Lost: lost, TTLMS: d.TTL().Milliseconds()})
	})
	mux.HandleFunc("GET /v1/sweep", func(w http.ResponseWriter, req *http.Request) {
		writeJSONResponse(w, d.Status())
	})
	return withFaults(cfg.Fault, mux)
}

func writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
