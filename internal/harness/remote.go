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

// Remote-client timing. In-package tests shorten it on a fresh client.
const (
	// remoteTimeout bounds one HTTP request.
	remoteTimeout = 5 * time.Second
	// remoteRetries is how often a failed request is retried against one
	// server (3 attempts in all), with exponential backoff from
	// remoteBackoff plus up to 100% jitter.
	remoteRetries = 2
	remoteBackoff = 50 * time.Millisecond
	// remoteReprobe is how often a dead server is re-probed for recovery;
	// a restarted gwcached is readopted within one period.
	remoteReprobe = 2 * time.Second
	// remoteIdleConns is how many idle connections a client keeps per
	// server. It is above what one process has in flight — its Runner's
	// jobs (one per core), a claim and a heartbeat — so a busy worker
	// reuses connections instead of redialing: http.DefaultTransport keeps
	// 2 per host, shared by every client in the process.
	remoteIdleConns = 64
	// maxEntryBytes bounds one cache entry on the wire (a record is a few
	// hundred bytes; 16 MiB is far beyond any legitimate entry).
	maxEntryBytes = 16 << 20
)

// RemoteConfig configures a RemoteCache client: which servers it talks
// to and where its notices go. Its timing is fixed — a 5 s request
// timeout, three attempts per server with 50 ms exponential backoff, and a
// 2 s re-probe of dead servers — because no deployment has needed another.
type RemoteConfig struct {
	// URL is the gwcached base URL, e.g. "http://cachehost:8344".
	URL string
	// URLs lists several gwcached servers in preference order — a primary
	// and its standbys. The client elects the first healthy one, fails
	// over when it dies, and readopts it when a health probe sees it
	// recover. When set, URL is ignored.
	URLs []string
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
// GET/PUT /v1/cell/<key> with record bodies (see Cache), plus the fleet
// dispatch RPCs. Every request takes one path, send: the servers are tried
// one at a time in preference order, each through a full retry cycle
// (exponential backoff plus jitter), and the first answer wins. A request
// never goes to a second server while the first may still answer: every
// gwcached owns its own lease table, so a duplicate would queue or lease
// the same cells twice. A server that stays unreachable through its retry
// cycle is marked dead. Dead servers are re-probed in the background
// (GET /healthz) and readopted when they recover, so a gwcached restart
// costs a sweep a brief degradation, never the rest of the process. Only
// when every server is dead does cell traffic degrade to a local-only
// no-op — and even then the prober keeps watching.
//
// A RemoteCache is safe for concurrent use by the Runner's workers.
type RemoteCache struct {
	base    string // preferred (first) server, for messages and stats
	targets []*remoteTarget
	// client (Timeout remoteTimeout, its own Transport with
	// remoteIdleConns idle connections per server), retries, backoff and
	// reprobe start at the constants above; only in-package tests shorten
	// them.
	client  *http.Client
	retries int
	backoff time.Duration
	reprobe time.Duration
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
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = remoteIdleConns
	c := &RemoteCache{
		client:  &http.Client{Timeout: remoteTimeout, Transport: tr},
		retries: remoteRetries,
		backoff: remoteBackoff,
		reprobe: remoteReprobe,
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
	if c.log == nil {
		c.log = os.Stderr
	}
	return c, nil
}

// Close stops the background health prober and closes the client's idle
// connections. The client itself remains usable (requests still flow,
// over new connections), but dead servers are no longer readopted.
func (c *RemoteCache) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.client.CloseIdleConnections()
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
	body, status, err := c.send(http.MethodGet, "/v1/cell/"+key, nil, false)
	if err != nil {
		return nil, false
	}
	switch status {
	case http.StatusOK:
		r, err := readRecord(key, body)
		if err != nil {
			c.errs.Add(1)
			return nil, false
		}
		c.hits.Add(1)
		return r, true
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
	return c.putCell("remote cache put", key, r, false)
}

// CompleteWork publishes a finished cell and thereby marks it done on the
// dispatcher — the same idempotent PUT as Put, but patient, so a worker
// keeps completing cells across a gwcached restart.
func (c *RemoteCache) CompleteWork(key string, r *RunResult) error {
	return c.putCell("complete", key, r, true)
}

// putCell PUTs r's record under key; op names the caller in errors.
func (c *RemoteCache) putCell(op, key string, r *RunResult, patient bool) error {
	if !ValidKey(key) {
		return fmt.Errorf("harness: %s: malformed key %q", op, key)
	}
	body, status, err := c.send(http.MethodPut, "/v1/cell/"+key, encodeRecord(key, r), patient)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", op, err)
	}
	if status/100 != 2 {
		c.errs.Add(1)
		return fmt.Errorf("harness: %s: server returned %d: %s", op, status, strings.TrimSpace(string(body)))
	}
	c.puts.Add(1)
	return nil
}

// errNoServer is send's answer when no server was tried at all.
var errNoServer = errors.New("harness: remote cache: no reachable server")

// send is the one request path: it tries the live servers one at a time
// in preference order, each through roundTrip's full retry cycle, and
// returns the first answer. A server whose cycle fails hands the request
// to the next; the cycle marks it dead when the failure was at the
// transport level. Patient requests — the dispatch RPCs, whose worker has
// no local fallback and must ride out an outage inside the WorkerPool's
// patience window — try every server when all are dead; cell traffic then
// fails at once and the local tiers take over.
func (c *RemoteCache) send(method, path string, body []byte, patient bool) ([]byte, int, error) {
	err := errNoServer
	all := patient && c.Degraded()
	for _, t := range c.targets {
		if !all && t.dead.Load() {
			continue
		}
		b, status, rerr := c.roundTrip(method, t, path, body)
		if rerr == nil {
			return b, status, nil
		}
		err = rerr
	}
	return nil, 0, err
}

// roundTrip issues one request against t with bounded retries. Transport
// errors and 5xx responses are retried with exponential backoff + jitter;
// 2xx/4xx are returned to the caller. When the final failure was at the
// transport level the server is unreachable: it is marked dead (waking the
// re-probe loop) so later requests skip it. A response from a dead-marked
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
// protocol: its /v1 sweep endpoints answer 404 because its ServerConfig
// has no Durable lease table.
var ErrNoDispatcher = errors.New("harness: remote server has no work dispatcher")

// dispatchJSON runs one fleet-dispatch RPC: JSON in, JSON out, through
// send's patient failover.
func (c *RemoteCache) dispatchJSON(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("harness: dispatch %s: %w", path, err)
		}
		body = b
	}
	respBody, status, err := c.send(method, path, body, true)
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
