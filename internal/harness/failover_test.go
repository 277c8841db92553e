package harness

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ghostwriter/internal/fault"
)

// restartOn rebinds addr (racing the OS releasing it) and serves h there.
func restartOn(t *testing.T, addr string, h http.Handler) *httptest.Server {
	t.Helper()
	var (
		ln  net.Listener
		err error
	)
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts := httptest.NewUnstartedServer(h)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	return ts
}

// TestRemoteCacheReadoptsRestartedServer: the fix for the one-shot
// degradation. A client that degraded against a dead server must readopt
// it once the background health probe sees it come back — no new client,
// no sweep restart.
func TestRemoteCacheReadoptsRestartedServer(t *testing.T) {
	store := NewMemCache()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ts := httptest.NewUnstartedServer(NewServer(ServerConfig{Backend: store}))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()

	var logBuf bytes.Buffer
	rc, err := NewRemoteCache(RemoteConfig{
		URL:     "http://" + addr,
		Timeout: time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
		Reprobe: 10 * time.Millisecond,
		Log:     &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	key := backendKey(21)
	if err := rc.Put(key, &RunResult{App: "probe", Cycles: 9}); err != nil {
		t.Fatal(err)
	}

	// Kill the server; the next request degrades the client.
	ts.CloseClientConnections()
	ts.Close()
	if _, ok := rc.Get(key); ok {
		t.Fatal("dead server reported a hit")
	}
	if !rc.Degraded() {
		t.Fatal("client not degraded after the server died")
	}

	// Bring it back on the same address: the prober must readopt it.
	ts2 := restartOn(t, addr, NewServer(ServerConfig{Backend: store}))
	defer ts2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rc.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("recovered server never readopted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, ok := rc.Get(key); !ok || got.Cycles != 9 {
		t.Fatalf("Get after readoption = %+v/%v, want the stored entry", got, ok)
	}
	log := logBuf.String()
	if !strings.Contains(log, "unreachable") || !strings.Contains(log, "readopted") {
		t.Errorf("log missing the degradation/readoption trail:\n%s", log)
	}
}

// TestRemoteCacheFailsOverToStandby: with two configured servers, killing
// the primary moves cell traffic to the standby within one request — no
// degradation, no lost sweep state (the store is shared).
func TestRemoteCacheFailsOverToStandby(t *testing.T) {
	store := NewMemCache() // shared: standby sees the primary's entries
	primary := httptest.NewServer(NewServer(ServerConfig{Backend: store}))
	standby := httptest.NewServer(NewServer(ServerConfig{Backend: store}))
	defer standby.Close()

	var logBuf bytes.Buffer
	rc, err := NewRemoteCache(RemoteConfig{
		URLs:    []string{primary.URL, standby.URL},
		Timeout: time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
		Reprobe: -1, // keep the primary dead once it dies
		Log:     &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	key := backendKey(22)
	if err := rc.Put(key, &RunResult{App: "failover", Cycles: 4}); err != nil {
		t.Fatal(err)
	}

	primary.CloseClientConnections()
	primary.Close()
	got, ok := rc.Get(key)
	if !ok || got.Cycles != 4 {
		t.Fatalf("Get after primary death = %+v/%v, want a hit via the standby", got, ok)
	}
	if rc.Degraded() {
		t.Error("client degraded despite a healthy standby")
	}
	if !strings.Contains(logBuf.String(), "failing over") {
		t.Errorf("failover not logged:\n%s", logBuf.String())
	}
	if strings.Contains(logBuf.String(), "local tiers only") {
		t.Errorf("client announced full degradation with a standby alive:\n%s", logBuf.String())
	}
}

// TestDispatchHedgedFailover: a dispatch RPC against a wedged (not dead)
// primary must be answered by the standby via the hedge, far sooner than
// the primary's timeout-and-retry cycle would allow.
func TestDispatchHedgedFailover(t *testing.T) {
	// The wedged primary accepts requests and never answers. It blocks on
	// release (not only the request context: with an unread body the server
	// cannot see the client hang up) so teardown can always free it.
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		select {
		case <-req.Context().Done():
		case <-release:
		}
	}))
	defer wedged.Close()
	defer close(release)
	standby := httptest.NewServer(NewServer(ServerConfig{Backend: NewMemCache(), Dispatcher: NewDispatcher(time.Minute)}))
	defer standby.Close()

	rc, err := NewRemoteCache(RemoteConfig{
		URLs:    []string{wedged.URL, standby.URL},
		Timeout: time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
		Hedge:   10 * time.Millisecond,
		Reprobe: -1,
		Log:     io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	start := time.Now()
	resp, err := rc.SubmitSweep(manifestItems(2))
	elapsed := time.Since(start)
	if err != nil || resp.Queued != 2 {
		t.Fatalf("hedged submit = %+v, %v; want 2 queued", resp, err)
	}
	// Without the hedge the client would sit out the wedged primary's full
	// retry cycle (2 × 1s timeouts) before trying the standby.
	if elapsed >= time.Second {
		t.Errorf("hedged submit took %v — the hedge never fired", elapsed)
	}
}

// TestServerDrainGateRejectsNewWork: a draining gwcached refuses new
// submissions and claims with 503 + Retry-After while still accepting the
// completions that let in-flight cells land, and reports itself unhealthy
// so failover clients elect a standby.
func TestServerDrainGateRejectsNewWork(t *testing.T) {
	store := NewMemCache()
	gate := &DrainGate{}
	ts := httptest.NewServer(NewServer(ServerConfig{
		Backend:    store,
		Dispatcher: NewDispatcher(time.Minute),
		Gate:       gate,
	}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)

	items := manifestItems(2)
	if _, err := rc.SubmitSweep(items); err != nil {
		t.Fatal(err)
	}
	claimed, err := rc.ClaimWork("w1", 1)
	if err != nil || len(claimed.Items) != 1 {
		t.Fatalf("claim before drain = %+v, %v", claimed, err)
	}

	gate.Drain()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for _, path := range []string{"/v1/sweep", "/v1/claim"} {
		resp := post(path, `{"worker":"w2","cells":[]}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining POST %s = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("draining POST %s has no Retry-After header", path)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining /healthz = %d, want 503 so failover clients move on", resp.StatusCode)
		}
	}

	// The in-flight cell must still complete: PUT and heartbeat flow.
	cell := claimed.Items[0]
	if hb, err := rc.HeartbeatWork("w1", []string{cell.Key}); err != nil || len(hb.Renewed) != 1 {
		t.Errorf("heartbeat while draining = %+v, %v; want the lease renewed", hb, err)
	}
	res, _ := stubExecute(cell.Spec)
	if err := rc.CompleteWork(cell.Key, &res); err != nil {
		t.Errorf("completion while draining rejected: %v", err)
	}
	if st, err := rc.SweepStatus(); err != nil || st.Done != 1 {
		t.Errorf("status while draining = %+v, %v; want the completion counted", st, err)
	}
}

// TestServerFaultMiddleware: the injector's HTTP points — an injected
// request failure answers 503, an injected crash aborts the connection
// like a dying process, and an injected truncation cuts the response body.
func TestServerFaultMiddleware(t *testing.T) {
	t.Run("fail", func(t *testing.T) {
		inj := fault.New(fault.Rule{Point: "http.request", N: 1, Kind: fault.Fail})
		ts := httptest.NewServer(NewServer(ServerConfig{Backend: NewMemCache(), Fault: inj}))
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("injected failure = %d, want 503", resp.StatusCode)
		}
		if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("request after one-shot fault = %v, %v; want 200", resp, err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	t.Run("crash", func(t *testing.T) {
		inj := fault.New(fault.Rule{Point: "http.request", N: 1, Kind: fault.Crash})
		ts := httptest.NewServer(NewServer(ServerConfig{Backend: NewMemCache(), Fault: inj}))
		defer ts.Close()
		if _, err := http.Get(ts.URL + "/healthz"); err == nil {
			t.Error("injected crash still produced a response; want an aborted connection")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		store := NewMemCache()
		key := backendKey(23)
		store.Put(key, &RunResult{App: "trunc", Cycles: 1})
		// N == 0: truncate every response, so the raw probe and the client's
		// retried Gets all see the cut body.
		inj := fault.New(fault.Rule{Point: "http.response", Kind: fault.Truncate, Bytes: 5})
		ts := httptest.NewServer(NewServer(ServerConfig{Backend: store, Fault: inj}))
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/v1/cell/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) > 5 {
			t.Errorf("truncated response carried %d bytes, want at most 5", len(body))
		}
		// The client treats the undecodable body as a miss, not a crash.
		rc := newChaosClient(t, ts.URL)
		if _, ok := rc.Get(key); ok {
			t.Error("truncated body decoded as a hit")
		}
	})
}
