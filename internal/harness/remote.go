package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Remote-client defaults; every knob is overridable through RemoteConfig.
const (
	defaultRemoteTimeout = 5 * time.Second
	defaultRemoteRetries = 2
	defaultRemoteBackoff = 50 * time.Millisecond
	// defaultRemoteReprobe is how often a dead server is re-probed for
	// recovery; a restarted gwcached is readopted within one period.
	defaultRemoteReprobe = 2 * time.Second
	// defaultRemoteHedge is the hedged-dispatch delay with multiple
	// servers: if the preferred server has not answered a dispatch RPC
	// within it, the same request also races against the next server.
	defaultRemoteHedge = 250 * time.Millisecond
	// maxEntryBytes bounds one cache entry on the wire (a RunResult is a
	// few KB of JSON; 16 MiB is far beyond any legitimate entry).
	maxEntryBytes = 16 << 20
)

// RemoteConfig configures a RemoteCache client.
type RemoteConfig struct {
	// URL is the gwcached base URL, e.g. "http://cachehost:8344".
	URL string
	// URLs lists several gwcached servers in preference order — a primary
	// and its standbys. The client elects the first healthy one, fails
	// over when it dies, and readopts it when a health probe sees it
	// recover. When set, URL is ignored.
	URLs []string
	// Timeout bounds one HTTP request (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed request is retried before the
	// client gives up on it (default 2, so 3 attempts total). Retries use
	// exponential backoff with jitter.
	Retries int
	// Backoff is the first retry's base delay (default 50ms); each further
	// retry doubles it, and up to 100% jitter is added on top.
	Backoff time.Duration
	// Reprobe is the dead-server re-probe period (default 2s); negative
	// disables re-probing (a dead server then stays dead, the pre-failover
	// behaviour).
	Reprobe time.Duration
	// Hedge is the hedged-dispatch delay (default 250ms, meaningful only
	// with several URLs); negative disables hedging.
	Hedge time.Duration
	// Log receives degradation/failover/readoption notices (default
	// os.Stderr).
	Log io.Writer
}

// remoteTarget is one configured server and its health bit.
type remoteTarget struct {
	base string
	dead atomic.Bool
}

// RemoteCache is a CacheBackend backed by one or more gwcached servers:
// GET/PUT /v1/cell/<key> with JSON RunResult bodies against the first
// healthy server in preference order. Requests are retried with
// exponential backoff plus jitter; a server that stays unreachable through
// a full retry cycle is marked dead and traffic fails over to the next.
// Dead servers are re-probed in the background (GET /healthz) and
// readopted when they recover, so a gwcached restart costs a sweep a brief
// degradation, never the rest of the process. Only when every server is
// dead does the client degrade to a local-only no-op — and even then the
// prober keeps watching.
//
// A RemoteCache is safe for concurrent use by the Runner's workers.
type RemoteCache struct {
	base    string // preferred (first) server, for messages and stats
	targets []*remoteTarget
	client  *http.Client
	retries int
	backoff time.Duration
	reprobe time.Duration
	hedge   time.Duration
	log     io.Writer

	// healthMu serializes health transitions (markDead on request
	// goroutines, revive on the prober) and their notices. Each transition
	// writes its notice before it publishes the target's dead bit, so
	// notices never interleave and whoever observes the new state — through
	// Degraded, say — finds its notice already in Log. Readers of the bit
	// take no lock.
	healthMu sync.Mutex

	closed    chan struct{}
	closeOnce sync.Once
	probing   atomic.Bool

	// hits/misses count server answers; errors counts failed requests
	// (after retries) and malformed responses.
	hits, misses, puts, errs atomic.Uint64
}

// NewRemoteCache validates the configured URLs and returns a client for
// them. No server is contacted here: an unreachable server must degrade a
// sweep, not abort it before the first cell.
func NewRemoteCache(cfg RemoteConfig) (*RemoteCache, error) {
	urls := cfg.URLs
	if len(urls) == 0 {
		urls = []string{cfg.URL}
	}
	c := &RemoteCache{
		retries: cfg.Retries,
		backoff: cfg.Backoff,
		reprobe: cfg.Reprobe,
		hedge:   cfg.Hedge,
		log:     cfg.Log,
		closed:  make(chan struct{}),
	}
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("harness: remote cache: invalid URL %q", raw)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("harness: remote cache: unsupported scheme %q", u.Scheme)
		}
		c.targets = append(c.targets, &remoteTarget{base: strings.TrimRight(raw, "/")})
	}
	c.base = c.targets[0].base
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultRemoteTimeout
	}
	if c.retries <= 0 {
		c.retries = defaultRemoteRetries
	}
	if c.backoff <= 0 {
		c.backoff = defaultRemoteBackoff
	}
	if c.reprobe == 0 {
		c.reprobe = defaultRemoteReprobe
	}
	if c.hedge == 0 {
		c.hedge = defaultRemoteHedge
	}
	if c.log == nil {
		c.log = os.Stderr
	}
	c.client = &http.Client{Timeout: timeout}
	return c, nil
}

// Close stops the background health prober. The client itself remains
// usable (requests still flow), but dead servers are no longer readopted.
func (c *RemoteCache) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
}

// Degraded reports whether every configured server is currently dead and
// the client is running local-only.
func (c *RemoteCache) Degraded() bool { return c.firstAlive() == nil }

// firstAlive returns the healthy server earliest in preference order, or
// nil when all are dead — re-election after a readoption is implicit.
func (c *RemoteCache) firstAlive() *remoteTarget {
	for _, t := range c.targets {
		if !t.dead.Load() {
			return t
		}
	}
	return nil
}

// candidates returns targets in dispatch preference order: healthy ones
// first (in configured order), then — only when none are healthy — every
// target, because fleet-dispatch traffic must keep knocking through a
// full outage rather than fail fast (the WorkerPool's patience window
// rides on it).
func (c *RemoteCache) candidates() []*remoteTarget {
	alive := make([]*remoteTarget, 0, len(c.targets))
	for _, t := range c.targets {
		if !t.dead.Load() {
			alive = append(alive, t)
		}
	}
	if len(alive) > 0 {
		return alive
	}
	return append(alive, c.targets...)
}

// logf writes one health notice. The caller holds healthMu.
func (c *RemoteCache) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "harness: remote cache "+format+"\n", args...)
}

// markDead records a transport-level failure of t, logs the transition,
// and wakes the re-probe loop. The local-only notice appears once per
// outage: only the transition that kills the last live server writes it.
func (c *RemoteCache) markDead(t *remoteTarget, cause error) {
	c.healthMu.Lock()
	if !t.dead.Load() {
		var next *remoteTarget
		for _, o := range c.targets {
			if o != t && !o.dead.Load() {
				next = o
				break
			}
		}
		if next != nil {
			c.logf("%s unreachable (%v); failing over to %s", t.base, cause, next.base)
		} else {
			c.logf("%s unreachable (%v); continuing with local tiers only", t.base, cause)
		}
		t.dead.Store(true)
	}
	c.healthMu.Unlock()
	c.ensureProber()
}

// revive readopts a recovered server.
func (c *RemoteCache) revive(t *remoteTarget) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if t.dead.Load() {
		c.logf("%s recovered; readopted", t.base)
		t.dead.Store(false)
	}
}

// ensureProber starts the background health re-probe loop if it is not
// already running; the loop exits once every server is healthy again.
func (c *RemoteCache) ensureProber() {
	if c.reprobe < 0 {
		return
	}
	select {
	case <-c.closed:
		return
	default:
	}
	if !c.probing.CompareAndSwap(false, true) {
		return
	}
	go c.probeLoop()
}

func (c *RemoteCache) probeLoop() {
	t := time.NewTicker(c.reprobe)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			c.probing.Store(false)
			return
		case <-t.C:
		}
		dead := 0
		for _, tg := range c.targets {
			if !tg.dead.Load() {
				continue
			}
			if c.probe(tg) {
				c.revive(tg)
			} else {
				dead++
			}
		}
		if dead == 0 {
			c.probing.Store(false)
			// A server may have died between the scan and the flag store,
			// skipping its ensureProber; re-check so no outage goes
			// unwatched.
			if c.firstAlive() == nil || c.anyDead() {
				c.ensureProber()
			}
			return
		}
	}
}

func (c *RemoteCache) anyDead() bool {
	for _, t := range c.targets {
		if t.dead.Load() {
			return true
		}
	}
	return false
}

// probe asks one server's /healthz; any 200 means alive.
func (c *RemoteCache) probe(t *remoteTarget) bool {
	resp, err := c.client.Get(t.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Get fetches the entry for key from the first healthy server. Any failure
// — malformed key, exhausted retries everywhere, undecodable body — is a
// miss; the caller's fallback (simulate locally) is always correct.
func (c *RemoteCache) Get(key string) (*RunResult, bool) {
	if c.Degraded() || !ValidKey(key) {
		return nil, false
	}
	body, status, err := c.do(http.MethodGet, key, nil)
	if err != nil {
		return nil, false
	}
	switch status {
	case http.StatusOK:
		var r RunResult
		if err := json.Unmarshal(body, &r); err != nil {
			c.errs.Add(1)
			return nil, false
		}
		c.hits.Add(1)
		return &r, true
	case http.StatusNotFound:
		c.misses.Add(1)
		return nil, false
	default:
		c.errs.Add(1)
		return nil, false
	}
}

// Put uploads r under key. While every server is dead, Put is a silent
// no-op so the local tiers keep the sweep going without per-cell noise;
// the prober readopts a recovered server mid-sweep.
func (c *RemoteCache) Put(key string, r *RunResult) error {
	if c.Degraded() {
		return nil
	}
	if !ValidKey(key) {
		return fmt.Errorf("harness: remote cache put: malformed key %q", key)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("harness: remote cache put: %w", err)
	}
	_, status, err := c.do(http.MethodPut, key, b)
	if err != nil {
		return fmt.Errorf("harness: remote cache put: %w", err)
	}
	if status/100 != 2 {
		c.errs.Add(1)
		return fmt.Errorf("harness: remote cache put: server returned %d", status)
	}
	c.puts.Add(1)
	return nil
}

// do issues one cell request against the healthy servers in preference
// order: a server that fails at the transport level is marked dead and the
// next one is tried, so cell traffic follows the same election the
// dispatch RPCs use. It fails only when every server has been marked dead
// (local tiers take over) or a server answers with a decided error.
func (c *RemoteCache) do(method, key string, body []byte) ([]byte, int, error) {
	var lastErr error
	for {
		t := c.firstAlive()
		if t == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("harness: remote cache: no reachable server")
			}
			return nil, 0, lastErr
		}
		b, status, err := c.roundTrip(method, t, "/v1/cell/"+key, body)
		if err == nil {
			return b, status, nil
		}
		lastErr = err
		if !t.dead.Load() {
			// Decided failure (e.g. persistent 5xx) from a live server:
			// failing over would retry a request the server understood.
			return nil, 0, lastErr
		}
	}
}

// roundTrip issues one request against t with bounded retries. Transport
// errors and 5xx responses are retried with exponential backoff + jitter;
// 2xx/4xx are returned to the caller. When the final failure was at the
// transport level the server is unreachable: it is marked dead (waking the
// re-probe loop) so callers fail over. A response from a dead-marked
// server readopts it — successful traffic is the strongest health probe.
func (c *RemoteCache) roundTrip(method string, t *remoteTarget, path string, body []byte) ([]byte, int, error) {
	endpoint := t.base + path
	var (
		lastErr   error
		transport bool
	)
	for attempt := 0; ; attempt++ {
		var reqBody io.Reader
		if body != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, endpoint, reqBody)
		if err != nil {
			return nil, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.client.Do(req)
		if err == nil {
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr, transport = rerr, true
			case resp.StatusCode >= 500:
				lastErr, transport = fmt.Errorf("harness: remote cache: %s %s: %s", method, endpoint, resp.Status), false
			default:
				c.revive(t)
				return b, resp.StatusCode, nil
			}
		} else {
			lastErr, transport = err, true
		}
		if attempt >= c.retries {
			break
		}
		c.sleep(attempt)
	}
	c.errs.Add(1)
	if transport {
		c.markDead(t, lastErr)
	}
	return nil, 0, lastErr
}

// sleep waits out the backoff for the given (0-based) failed attempt:
// base·2^attempt plus up to 100% jitter, so a fleet of sweep hosts does
// not hammer a recovering server in lockstep.
func (c *RemoteCache) sleep(attempt int) {
	d := c.backoff << attempt
	d += time.Duration(rand.Int64N(int64(d) + 1))
	time.Sleep(d)
}

// RemoteStats is a point-in-time snapshot of remote-cache traffic.
type RemoteStats struct {
	// Hits and Misses count definitive server answers (200 / 404).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts entries accepted by the server.
	Puts uint64 `json:"puts"`
	// Errors counts requests that failed after retries, server errors, and
	// undecodable responses.
	Errors uint64 `json:"errors"`
	// Degraded reports that every configured server is currently dead and
	// the sweep is running on local tiers only.
	Degraded bool `json:"degraded,omitempty"`
}

// ErrNoDispatcher reports a gwcached that serves only the storage
// protocol: its /v1 sweep endpoints answer 404 because it was built
// without a Dispatcher.
var ErrNoDispatcher = errors.New("harness: remote server has no work dispatcher")

// dispatchResult is one server's answer to a (possibly hedged) RPC.
type dispatchResult struct {
	body   []byte
	status int
	err    error
}

// dispatchRoundTrip runs one fleet-dispatch RPC against the elected
// server, with failover and hedging: the preferred candidate is tried
// first; if it errors — or simply has not answered within the hedge delay
// — the request also goes to the next candidate, and the first response
// wins. Dispatch RPCs are safe to hedge: claims that double-grant are
// healed by lease expiry, and completions are idempotent. Unlike cell
// traffic this path never degrades permanently — a worker has no local
// fallback and must ride out a full outage (its WorkerPool supplies the
// patience window), so with every server dead it still knocks on each.
func (c *RemoteCache) dispatchRoundTrip(method, path string, body []byte) ([]byte, int, error) {
	cands := c.candidates()
	results := make(chan dispatchResult, len(cands))
	launched := 0
	launch := func() {
		t := cands[launched]
		launched++
		go func() {
			b, status, err := c.roundTrip(method, t, path, body)
			results <- dispatchResult{b, status, err}
		}()
	}
	launch()
	var hedgeC <-chan time.Time
	if c.hedge > 0 && launched < len(cands) {
		timer := time.NewTimer(c.hedge)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var lastErr error
	for pending := 1; pending > 0; {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				return r.body, r.status, nil
			}
			lastErr = r.err
			if launched < len(cands) {
				launch()
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				launch()
				pending++
			}
		}
	}
	return nil, 0, lastErr
}

// dispatchJSON runs one fleet-dispatch RPC: JSON in, JSON out, bounded
// retries per server, failover + hedging across servers, no permanent
// degradation (see dispatchRoundTrip).
func (c *RemoteCache) dispatchJSON(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("harness: dispatch %s: %w", path, err)
		}
		body = b
	}
	respBody, status, err := c.dispatchRoundTrip(method, path, body)
	if err != nil {
		return fmt.Errorf("harness: dispatch %s: %w", path, err)
	}
	if status == http.StatusNotFound {
		return ErrNoDispatcher
	}
	if status/100 != 2 {
		c.errs.Add(1)
		return fmt.Errorf("harness: dispatch %s: server returned %d: %s", path, status, strings.TrimSpace(string(respBody)))
	}
	if out != nil {
		if err := json.Unmarshal(respBody, out); err != nil {
			c.errs.Add(1)
			return fmt.Errorf("harness: dispatch %s: undecodable response: %w", path, err)
		}
	}
	return nil
}

// SubmitSweep posts a grid manifest for fleet dispatch.
func (c *RemoteCache) SubmitSweep(cells []WorkItem) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.dispatchJSON(http.MethodPost, "/v1/sweep", SweepManifest{Cells: cells}, &out)
	return out, err
}

// ClaimWork leases up to max pending cells for worker.
func (c *RemoteCache) ClaimWork(worker string, max int) (ClaimResponse, error) {
	var out ClaimResponse
	err := c.dispatchJSON(http.MethodPost, "/v1/claim", ClaimRequest{Worker: worker, Max: max}, &out)
	return out, err
}

// HeartbeatWork renews worker's leases on keys.
func (c *RemoteCache) HeartbeatWork(worker string, keys []string) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	err := c.dispatchJSON(http.MethodPost, "/v1/heartbeat", HeartbeatRequest{Worker: worker, Keys: keys}, &out)
	return out, err
}

// SweepStatus fetches the dispatcher's counters.
func (c *RemoteCache) SweepStatus() (SweepStatus, error) {
	var out SweepStatus
	err := c.dispatchJSON(http.MethodGet, "/v1/sweep", nil, &out)
	return out, err
}

// CompleteWork publishes a finished cell and thereby marks it done on the
// dispatcher — the same idempotent PUT as the cache tier's Put, but on the
// non-degrading dispatch path (with failover and hedging) so a worker can
// keep completing cells across a gwcached restart.
func (c *RemoteCache) CompleteWork(key string, r *RunResult) error {
	if !ValidKey(key) {
		return fmt.Errorf("harness: complete: malformed key %q", key)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("harness: complete: %w", err)
	}
	body, status, err := c.dispatchRoundTrip(http.MethodPut, "/v1/cell/"+key, b)
	if err != nil {
		return fmt.Errorf("harness: complete: %w", err)
	}
	if status/100 != 2 {
		c.errs.Add(1)
		return fmt.Errorf("harness: complete: server returned %d: %s", status, strings.TrimSpace(string(body)))
	}
	c.puts.Add(1)
	return nil
}

// RemoteStats returns the client's counters; the bool is always true and
// exists to satisfy the shared stats-discovery interface.
func (c *RemoteCache) RemoteStats() (RemoteStats, bool) {
	return RemoteStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Puts:     c.puts.Load(),
		Errors:   c.errs.Load(),
		Degraded: c.Degraded(),
	}, true
}
