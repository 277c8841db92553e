package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostwriter/internal/harness"
)

// testKey is a well-formed (64 hex chars) cache key for handler tests.
const testKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// TestServerRoundTripOnDisk exercises the full binary wiring: the handler
// built over a real on-disk cache, fronted by the request logger, must
// store a client's PUT and serve it back on GET.
func TestServerRoundTripOnDisk(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(io.Discard)
	ts := httptest.NewServer(logRequests(harness.NewServer(harness.ServerConfig{Backend: cache})))
	defer ts.Close()
	rc, err := harness.NewRemoteCache(harness.RemoteConfig{URL: ts.URL, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	want := harness.RunResult{App: "stub", Cycles: 1234}
	if err := rc.Put(testKey, &want); err != nil {
		t.Fatal(err)
	}
	got, ok := rc.Get(testKey)
	if !ok || got.App != want.App || got.Cycles != want.Cycles {
		t.Errorf("GET returned %+v/%v, want %+v", got, ok, want)
	}
	if s := cache.Stats(); s.Puts != 1 || s.Hits != 1 {
		t.Errorf("cache stats %+v, want 1 put / 1 hit", s)
	}
	for _, line := range []string{"PUT /v1/cell/", "GET /v1/cell/"} {
		if !strings.Contains(logBuf.String(), line) {
			t.Errorf("request log missing %q:\n%s", line, logBuf.String())
		}
	}
}

// TestServerStatsAndHealth: the operational endpoints answer over a disk
// cache, and /v1/stats reflects traffic.
func TestServerStatsAndHealth(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: cache}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}

	// One miss, then read the counters back.
	resp, err = ts.Client().Get(ts.URL + "/v1/cell/" + testKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of absent key status = %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats harness.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss", stats)
	}
}

// TestServerRejectsMalformedRequests: bad keys and non-RunResult bodies
// are 400s, never stored, and never panic the handler.
func TestServerRejectsMalformedRequests(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: cache}))
	defer ts.Close()

	for _, key := range []string{"x", "..", strings.Repeat("Z", 64)} {
		resp, err := ts.Client().Get(ts.URL + "/v1/cell/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Errorf("GET with key %q status = %d, want a 4xx/3xx rejection", key, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cell/"+testKey, strings.NewReader("{garbage"))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT with garbage body status = %d, want 400", resp.StatusCode)
	}
	if s := cache.Stats(); s.Puts != 0 {
		t.Errorf("malformed PUT reached the cache: %+v", s)
	}
}

// TestServerHealthzContentType: probes get an explicit text Content-Type,
// not Go's sniffed default.
func TestServerHealthzContentType(t *testing.T) {
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: harness.NewMemCache()}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/healthz Content-Type = %q, want text/plain", ct)
	}
}

// TestServerStatsWithoutCounters: a backend that tracks no counters (the
// TieredCache composite) still answers /v1/stats with 200 and a zero stats
// object, so monitoring scripts never special-case the status code.
func TestServerStatsWithoutCounters(t *testing.T) {
	backend := harness.NewTieredCache(harness.NewMemCache())
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: backend}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats over a counterless backend = %d, want 200", resp.StatusCode)
	}
	var stats harness.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/v1/stats body undecodable: %v", err)
	}
	if stats != (harness.CacheStats{}) {
		t.Errorf("stats = %+v, want the zero object", stats)
	}
}

// TestServerRejectsEmptyResult: a decodable but all-zero RunResult is a
// 400 — a vacuous entry planted once would otherwise be trusted by every
// worker that later hits the key.
func TestServerRejectsEmptyResult(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: cache}))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cell/"+testKey, strings.NewReader("{}"))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT of empty RunResult status = %d, want 400", resp.StatusCode)
	}
	if s := cache.Stats(); s.Puts != 0 {
		t.Errorf("empty RunResult reached the cache: %+v", s)
	}
}

// TestServerDispatchProtocol wires the full fleet protocol through the
// handler gwcached actually serves: submit → claim → heartbeat → complete
// via PUT → status.
func TestServerDispatchProtocol(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disp, _, err := harness.OpenDurableDispatcher(t.TempDir(), harness.DefaultLeaseTTL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	ts := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: cache, Durable: disp}))
	defer ts.Close()
	rc, err := harness.NewRemoteCache(harness.RemoteConfig{URL: ts.URL, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}

	manifest, err := harness.Manifest("fig1", harness.Options{Scale: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rc.SubmitSweep(manifest)
	if err != nil || sub.Queued != len(manifest) {
		t.Fatalf("submit = %+v, %v; want %d queued", sub, err, len(manifest))
	}
	claim, err := rc.ClaimWork("w1", 2)
	if err != nil || len(claim.Items) != 2 || claim.TTLMS <= 0 {
		t.Fatalf("claim = %+v, %v; want 2 items and a positive TTL", claim, err)
	}
	hb, err := rc.HeartbeatWork("w1", []string{claim.Items[0].Key})
	if err != nil || len(hb.Renewed) != 1 {
		t.Fatalf("heartbeat = %+v, %v; want the lease renewed", hb, err)
	}
	res := harness.RunResult{App: claim.Items[0].Spec.App, Cycles: 1}
	if err := rc.CompleteWork(claim.Items[0].Key, &res); err != nil {
		t.Fatal(err)
	}
	st, err := rc.SweepStatus()
	if err != nil || st.Done != 1 || st.Leased != 1 || st.Total != len(manifest) {
		t.Fatalf("status = %+v, %v; want 1 done / 1 leased of %d", st, err, len(manifest))
	}
}

// TestServerDurableRecoveryAcrossRestart exercises the wiring the binary
// boots with -wal: a WAL-backed dispatcher whose process dies mid-sweep
// (server gone, journal never closed) and a replacement that recovers the
// lease table from the same directory — submissions, leases, and
// completions all intact, the acknowledged completion never re-dispatched.
func TestServerDurableRecoveryAcrossRestart(t *testing.T) {
	cacheDir, walDir := t.TempDir(), t.TempDir()
	cache, err := harness.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(key string) bool {
		_, ok := cache.Get(key)
		return ok
	}
	dd, _, err := harness.OpenDurableDispatcher(walDir, harness.DefaultLeaseTTL, nil, cached)
	if err != nil {
		t.Fatal(err)
	}
	gate := &harness.DrainGate{}
	ts := httptest.NewServer(logRequests(harness.NewServer(harness.ServerConfig{
		Backend: cache, Durable: dd, Gate: gate,
	})))
	log.SetOutput(io.Discard)
	defer log.SetOutput(io.Discard)
	rc, err := harness.NewRemoteCache(harness.RemoteConfig{URL: ts.URL, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	manifest, err := harness.Manifest("fig1", harness.Options{Scale: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.SubmitSweep(manifest); err != nil {
		t.Fatal(err)
	}
	claim, err := rc.ClaimWork("w1", 2)
	if err != nil || len(claim.Items) != 2 {
		t.Fatalf("claim = %+v, %v", claim, err)
	}
	done := claim.Items[0]
	res := harness.RunResult{App: done.Spec.App, Cycles: 1}
	if err := rc.CompleteWork(done.Key, &res); err != nil {
		t.Fatal(err)
	}

	// Kill: the server vanishes without closing its journal. Everything
	// acknowledged above was fsynced per request.
	ts.CloseClientConnections()
	ts.Close()

	cache2, err := harness.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	cached2 := func(key string) bool {
		_, ok := cache2.Get(key)
		return ok
	}
	dd2, stats, err := harness.OpenDurableDispatcher(walDir, harness.DefaultLeaseTTL, nil, cached2)
	if err != nil {
		t.Fatalf("WAL recovery: %v", err)
	}
	defer dd2.Close()
	if stats.Cells != len(manifest) || stats.Done != 1 || stats.Leased != 1 {
		t.Fatalf("recovery stats %+v, want %d cells / 1 done / 1 leased", stats, len(manifest))
	}
	ts2 := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: cache2, Durable: dd2}))
	defer ts2.Close()
	rc2, err := harness.NewRemoteCache(harness.RemoteConfig{URL: ts2.URL, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	st, err := rc2.SweepStatus()
	if err != nil || st.Done != 1 || st.Leased != 1 || st.Total != len(manifest) {
		t.Fatalf("recovered status = %+v, %v; want 1 done / 1 leased of %d", st, err, len(manifest))
	}
	// The survivor's lease is honoured: w1 still holds its second cell.
	hb, err := rc2.HeartbeatWork("w1", []string{claim.Items[1].Key})
	if err != nil || len(hb.Renewed) != 1 {
		t.Fatalf("heartbeat after recovery = %+v, %v; want the lease renewed", hb, err)
	}
	// And the completed cell is never handed out again.
	for {
		c, err := rc2.ClaimWork("w2", 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Items) == 0 {
			break
		}
		for _, it := range c.Items {
			if it.Key == done.Key {
				t.Fatalf("completed cell %s re-dispatched after recovery", it.Key)
			}
		}
	}
}

// TestWalOffIsAUsageError: -wal names the WAL directory and dispatch is
// always journaled, so "-wal off" exits 2 before creating anything instead
// of journaling to a directory called off.
func TestWalOffIsAUsageError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if code := realMain([]string{"-dir", dir, "-wal", "off"}); code != 2 {
		t.Fatalf("gwcached -wal off exited %d, want 2", code)
	}
	for _, p := range []string{dir, "off"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("gwcached -wal off created %s", p)
		}
	}
}

// TestNonPositiveLeaseTTLIsAUsageError: a lease needs a positive
// -lease-ttl. A non-positive one exits 2 before the cache is opened
// instead of serving with some other period.
func TestNonPositiveLeaseTTLIsAUsageError(t *testing.T) {
	for _, args := range [][]string{{"-lease-ttl", "0"}, {"-lease-ttl", "-1s"}} {
		dir := filepath.Join(t.TempDir(), "cache")
		if code := realMain(append([]string{"-addr", "127.0.0.1:0", "-dir", dir, "-q"}, args...)); code != 2 {
			t.Fatalf("gwcached %v exited %d, want 2", args, code)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("gwcached %v created %s", args, dir)
		}
	}
}
