package harness

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRemote starts a gwcached-equivalent server over a MemCache and
// returns a client for it with test-friendly (fast) retry settings.
func newTestRemote(t *testing.T) (*httptest.Server, *MemCache, *RemoteCache) {
	t.Helper()
	store := NewMemCache()
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store}))
	t.Cleanup(ts.Close)
	rc, err := NewRemoteCache(RemoteConfig{
		URL:     ts.URL,
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Log:     &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	rc, err := NewRemoteCache(RemoteConfig{
		URL:     url,
		Timeout: time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
		Log:     &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	rc, err := NewRemoteCache(RemoteConfig{
		URL:     ts.URL,
		Retries: 3,
		Backoff: time.Millisecond,
		Log:     &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	rcB, err := NewRemoteCache(RemoteConfig{URL: rc.base, Backoff: time.Millisecond, Log: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
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

// TestBuildReportCarriesRemoteStats: the JSON report's timing section
// surfaces the remote counters when the backend has a remote tier.
func TestBuildReportCarriesRemoteStats(t *testing.T) {
	_, _, rc := newTestRemote(t)
	r := &Runner{Jobs: 2, Cache: NewTieredCache(NewMemCache(), rc)}
	rep, err := r.BuildReport(Options{Scale: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing == nil || rep.Timing.Remote == nil {
		t.Fatal("report timing has no remote section despite a remote tier")
	}
	if rep.Timing.Remote.Puts == 0 {
		t.Error("remote section shows zero puts after a cold build")
	}
	if rep.Timing.Failures != 0 {
		t.Errorf("report counted %d failures on a clean build", rep.Timing.Failures)
	}
}
