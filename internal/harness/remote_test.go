package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// timing is the RemoteCache timing a test shortens the production
// constants to; a zero field keeps its constant.
type timing struct {
	timeout          time.Duration
	retries          int
	backoff, reprobe time.Duration
}

// newTimedRemote builds a client from cfg with the given timing, closed
// when the test ends. Log defaults to io.Discard.
func newTimedRemote(t *testing.T, cfg RemoteConfig, tm timing) *RemoteCache {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	rc, err := NewRemoteCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if tm.timeout > 0 {
		rc.client.Timeout = tm.timeout
	}
	if tm.retries > 0 {
		rc.retries = tm.retries
	}
	if tm.backoff > 0 {
		rc.backoff = tm.backoff
	}
	if tm.reprobe > 0 {
		rc.reprobe = tm.reprobe
	}
	return rc
}

// newTestRemote starts a gwcached-equivalent server over a MemCache and
// returns a client for it with test-friendly (fast) retry settings.
func newTestRemote(t *testing.T) (*httptest.Server, *MemCache, *RemoteCache) {
	t.Helper()
	store := NewMemCache()
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store}))
	t.Cleanup(ts.Close)
	rc := newTimedRemote(t, RemoteConfig{URL: ts.URL}, timing{timeout: 2 * time.Second, retries: 2, backoff: time.Millisecond})
	return ts, store, rc
}

func TestRemoteCacheRoundTrip(t *testing.T) {
	_, store, rc := newTestRemote(t)
	key := backendKey(10)
	if _, ok := rc.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	want := RunResult{App: "remote-stub", Cycles: 77, ErrorPct: 1.5}
	if err := rc.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	got, ok := rc.Get(key)
	if !ok || got.App != want.App || got.Cycles != want.Cycles || got.ErrorPct != want.ErrorPct {
		t.Fatalf("round trip returned %+v/%v, want %+v", got, ok, want)
	}
	if _, ok := store.Get(key); !ok {
		t.Error("entry never reached the server's store")
	}
	s, _ := rc.RemoteStats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Errors != 0 || s.Degraded {
		t.Errorf("remote stats %+v, want 1 hit / 1 miss / 1 put", s)
	}
}

func TestRemoteCacheRejectsBadConfig(t *testing.T) {
	for _, u := range []string{"", "not a url", "ftp://host/x", "/just/a/path"} {
		if _, err := NewRemoteCache(RemoteConfig{URL: u}); err == nil {
			t.Errorf("NewRemoteCache(%q) accepted an invalid URL", u)
		}
	}
	rc, err := NewRemoteCache(RemoteConfig{URL: "http://localhost:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.Get("short"); ok {
		t.Error("malformed key reported a hit")
	}
	if err := rc.Put("short", &RunResult{}); err == nil {
		t.Error("Put with malformed key returned nil error")
	}
}

// TestRemoteCacheUnreachableDegradesOnce: against a dead server the first
// exhausted retry cycle flips the client to local-only — with exactly one
// log line — and later calls are free no-ops instead of fresh timeouts.
func TestRemoteCacheUnreachableDegradesOnce(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing listens here anymore

	var logBuf bytes.Buffer
	rc := newTimedRemote(t, RemoteConfig{URL: url, Log: &logBuf}, timing{timeout: time.Second, retries: 1, backoff: time.Millisecond})
	key := backendKey(11)
	if _, ok := rc.Get(key); ok {
		t.Fatal("dead server reported a hit")
	}
	if !rc.Degraded() {
		t.Fatal("client not degraded after exhausted retries on a dead server")
	}
	s, _ := rc.RemoteStats()
	errsAfterFirst := s.Errors
	// Subsequent traffic must not touch the network or the counters.
	if _, ok := rc.Get(key); ok {
		t.Error("degraded Get reported a hit")
	}
	if err := rc.Put(key, &RunResult{}); err != nil {
		t.Errorf("degraded Put returned %v, want silent nil", err)
	}
	s, _ = rc.RemoteStats()
	if s.Errors != errsAfterFirst {
		t.Errorf("degraded client still counting errors: %d → %d", errsAfterFirst, s.Errors)
	}
	if got := strings.Count(logBuf.String(), "unreachable"); got != 1 {
		t.Errorf("degradation logged %d times, want exactly once:\n%s", got, logBuf.String())
	}
}

// TestRemoteCacheRetriesFlakyServer: transient 5xx responses are retried
// with backoff until the server recovers within the retry budget.
func TestRemoteCacheRetriesFlakyServer(t *testing.T) {
	store := NewMemCache()
	inner := NewServer(ServerConfig{Backend: store})
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer ts.Close()
	rc := newTimedRemote(t, RemoteConfig{URL: ts.URL}, timing{retries: 3, backoff: time.Millisecond})
	key := backendKey(12)
	if err := rc.Put(key, &RunResult{Cycles: 3}); err != nil {
		t.Fatalf("Put through flaky server failed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (2 failures + 1 success)", got)
	}
	if rc.Degraded() {
		t.Error("client degraded on a recoverable 5xx — only transport failures should degrade")
	}
	if _, ok := store.Get(key); !ok {
		t.Error("entry missing after retried Put")
	}
}

// TestRunnerWarmRemoteColdDisk is the fleet acceptance scenario: a host
// with a cold local disk pointed at a warm gwcached must complete the grid
// with zero simulations, and the remote hits must be backfilled locally.
func TestRunnerWarmRemoteColdDisk(t *testing.T) {
	_, _, rc := newTestRemote(t)
	jobs := stubJobs(6)
	exec := func(s Spec) (RunResult, error) {
		return RunResult{App: s.App, Cycles: uint64(s.Scale)}, nil
	}

	// Host A: cold everything; simulates and publishes to the server.
	diskA, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rA := &Runner{Jobs: 4, Cache: NewTieredCache(diskA, rc)}
	rA.execute = exec
	if err := firstErr(rA.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if got, want := rA.Simulated(), uint64(len(jobs)); got != want {
		t.Fatalf("host A simulated %d cells, want %d", got, want)
	}
	s, _ := rc.RemoteStats()
	if s.Puts != uint64(len(jobs)) {
		t.Fatalf("host A published %d cells to the server, want %d", s.Puts, len(jobs))
	}

	// Host B: cold local disk, same server → zero simulations.
	rcB := newTimedRemote(t, RemoteConfig{URL: rc.base}, timing{backoff: time.Millisecond})
	diskB, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rB := &Runner{Jobs: 4, Cache: NewTieredCache(diskB, rcB)}
	rB.execute = func(s Spec) (RunResult, error) {
		t.Error("host B simulated a cell despite a warm remote")
		return exec(s)
	}
	cells := rB.Run(jobs)
	if err := firstErr(cells); err != nil {
		t.Fatal(err)
	}
	if rB.Simulated() != 0 {
		t.Errorf("host B simulated %d cells, want 0", rB.Simulated())
	}
	for i, c := range cells {
		if !c.Cached {
			t.Errorf("host B cell %d not marked cached", i)
		}
	}
	// The remote hits must now be on host B's disk (backfill).
	for _, j := range jobs {
		if _, ok := diskB.Get(j.Spec.Key()); !ok {
			t.Errorf("cell %s not backfilled onto host B's disk", j.Label)
		}
	}
}

// TestRunnerSurvivesServerDeathMidSweep: killing gwcached between cells
// degrades the sweep to local execution; no cell may fail.
func TestRunnerSurvivesServerDeathMidSweep(t *testing.T) {
	ts, _, rc := newTestRemote(t)
	disk, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Jobs: 2, Cache: NewTieredCache(disk, rc)}
	var cellsDone atomic.Int64
	r.execute = func(s Spec) (RunResult, error) {
		if cellsDone.Add(1) == 2 {
			ts.CloseClientConnections()
			ts.Close()
		}
		return RunResult{App: s.App, Cycles: uint64(s.Scale)}, nil
	}
	cells := r.Run(stubJobs(12))
	if err := firstErr(cells); err != nil {
		t.Fatalf("cell failed after server death: %v", err)
	}
	if got, want := r.Simulated(), uint64(12); got != want {
		t.Errorf("simulated %d cells, want %d", got, want)
	}
	if !rc.Degraded() {
		t.Error("client never degraded after the server died")
	}
	// Every cell must still be on local disk despite the dead remote.
	for i := 0; i < 12; i++ {
		if _, ok := disk.Get(stubJobs(12)[i].Spec.Key()); !ok {
			t.Errorf("cell %d missing from the local disk tier", i)
		}
	}
}

// TestRunExperimentCarriesRemoteStats: the report's timing section
// surfaces the remote counters when the backend has a remote tier.
func TestRunExperimentCarriesRemoteStats(t *testing.T) {
	_, _, rc := newTestRemote(t)
	r := &Runner{Jobs: 2, Cache: NewTieredCache(NewMemCache(), rc)}
	rep, err := r.RunExperiment(io.Discard, "fig12", Options{Scale: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing == nil || rep.Timing.Remote == nil {
		t.Fatal("report timing has no remote section despite a remote tier")
	}
	if rep.Timing.Remote.Puts == 0 {
		t.Error("remote section shows zero puts after a cold run")
	}
	if rep.Timing.Simulated != 3 {
		t.Errorf("report counted %d simulated cells, want fig12's 3", rep.Timing.Simulated)
	}
}

// TestRemoteCacheReusesConnections: 16 goroutines × 50 PUTs through one
// client open at most 17 connections to the server — one per goroutine
// and one to spare — where a client on http.DefaultTransport (2 idle
// connections per host, shared by the process) redials for most requests.
// The server holds the first 16 PUTs until all have arrived, so each
// goroutine's first PUT has its own connection: otherwise the Transport
// may hand a request waiting on its dial a connection that another
// request freed, and pool the dialed one as a spare.
func TestRemoteCacheReusesConnections(t *testing.T) {
	const goroutines, puts = 16, 50
	var dialed, seen atomic.Int64
	var arrived sync.WaitGroup
	arrived.Add(goroutines)
	srv := NewServer(ServerConfig{Backend: NewMemCache()})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if seen.Add(1) <= goroutines {
			arrived.Done()
			arrived.Wait()
		}
		srv.ServeHTTP(w, req)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	rc := newTimedRemote(t, RemoteConfig{URL: ts.URL}, timing{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := Spec{App: "stub", Scale: g*puts + i + 1, Threads: 1}.Key()
				if err := rc.Put(key, &RunResult{App: "stub", Cycles: uint64(i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dialed.Load(); n > goroutines+1 {
		t.Errorf("%d PUTs opened %d connections, want at most %d", goroutines*puts, n, goroutines+1)
	}
}

// FuzzRemoteResponses: whatever a server answers — any status a gwcached
// can send, with any body — the client neither panics nor invents an
// answer. Get hits exactly when a 200 body is one valid record of its key;
// Put and CompleteWork succeed exactly on a 2xx; a dispatch RPC returns
// the value its 2xx body decodes to with no error, ErrNoDispatcher on a
// 404 and an error otherwise; and a 2xx body that does not decode counts
// in RemoteStats.Errors.
func FuzzRemoteResponses(f *testing.F) {
	spec := Spec{App: "stub", Scale: 1, Threads: 1}
	key := spec.Key()
	res := &RunResult{App: "stub", Cycles: 7}
	claim, err := json.Marshal(ClaimResponse{Items: []WorkItem{{Key: key, Spec: spec}}, TTLMS: 90_000})
	if err != nil {
		f.Fatal(err)
	}
	huge, err := json.Marshal(ClaimResponse{TTLMS: math.MaxInt64 - 1})
	if err != nil {
		f.Fatal(err)
	}
	const ops = 7
	statuses := [...]int{200, 204, 400, 404, 500, 503}
	for i, body := range [][]byte{encodeRecord(key, res), claim, []byte("null"), claim[:len(claim)/2], huge} {
		for op := range uint8(ops) {
			f.Add(uint8(0), op, body)
			f.Add(uint8(1+(i+int(op))%(len(statuses)-1)), op, body)
		}
	}
	f.Fuzz(func(t *testing.T, st, op uint8, body []byte) {
		status := statuses[int(st)%len(statuses)]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(status)
			w.Write(body) // dropped on a 204
		}))
		defer srv.Close()
		if status == http.StatusNoContent {
			body = nil
		}
		rc := newTimedRemote(t, RemoteConfig{URL: srv.URL}, timing{timeout: 2 * time.Second, retries: 1, backoff: time.Microsecond})
		ok2xx := status/100 == 2
		switch op % ops {
		case 0:
			before := rc.errs.Load()
			got, hit := rc.Get(key)
			want, err := readRecord(key, body)
			if status == http.StatusOK && err != nil && rc.errs.Load() == before {
				t.Fatalf("an undecodable 200 body did not count as an error")
			}
			if valid := status == http.StatusOK && err == nil; hit != valid {
				t.Fatalf("Get on %d hit=%v, want %v", status, hit, valid)
			}
			if hit && !reflect.DeepEqual(got, want) {
				t.Fatalf("Get returned %+v, the body holds %+v", got, want)
			}
		case 1:
			if err := rc.Put(key, res); (err == nil) != ok2xx {
				t.Fatalf("Put on %d: %v", status, err)
			}
		case 2:
			if err := rc.CompleteWork(key, res); (err == nil) != ok2xx {
				t.Fatalf("CompleteWork on %d: %v", status, err)
			}
		case 3:
			checkDispatch(t, rc, status, body, func() (SubmitResponse, error) { return rc.SubmitSweep([]WorkItem{{Key: key, Spec: spec}}) })
		case 4:
			checkDispatch(t, rc, status, body, func() (ClaimResponse, error) { return rc.ClaimWork("w1", 2) })
		case 5:
			checkDispatch(t, rc, status, body, func() (HeartbeatResponse, error) { return rc.HeartbeatWork("w1", []string{key}) })
		case 6:
			checkDispatch(t, rc, status, body, rc.SweepStatus)
		}
	})
}

// checkDispatch runs one dispatch RPC against a server that answered
// status with body, and fails unless the call returned what
// FuzzRemoteResponses requires of it.
func checkDispatch[T any](t *testing.T, rc *RemoteCache, status int, body []byte, call func() (T, error)) {
	t.Helper()
	before := rc.errs.Load()
	got, err := call()
	var want T
	switch {
	case status == http.StatusNotFound:
		if !errors.Is(err, ErrNoDispatcher) {
			t.Fatalf("a 404 returned %v, want ErrNoDispatcher", err)
		}
	case status/100 != 2:
		if err == nil {
			t.Fatalf("a %d returned %+v and no error", status, got)
		}
	case json.Unmarshal(body, &want) == nil:
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("a %d body decoding to %+v returned %+v, %v", status, want, got, err)
		}
	default:
		if err == nil {
			t.Fatalf("an undecodable %d body returned %+v and no error", status, got)
		}
		if rc.errs.Load() == before {
			t.Fatalf("an undecodable %d body did not count as an error", status)
		}
	}
}
