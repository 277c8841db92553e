package harness

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostwriter"
)

// olderBuildJSON is a RunResult as a build that sent JSON and lacked
// Stats.Events would send it: decoding it into this build's RunResult
// zero-fills Events without a complaint.
func olderBuildJSON(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(RunResult{App: "stub", Cycles: 9, Stats: ghostwriter.Stats{Cycles: 9, Events: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	delete(m["Stats"].(map[string]any), "Events")
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerAcceptsOnlyRecordsOfTheURLKey: a cell PUT body is one record
// of the URL's key in this build's layout. An older build's JSON and a
// record of another key are 400s, and neither is stored under either key.
func TestServerAcceptsOnlyRecordsOfTheURLKey(t *testing.T) {
	store := NewMemCache()
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store}))
	defer ts.Close()
	key, other := backendKey(30), backendKey(31)
	for name, body := range map[string][]byte{
		"older build's JSON":    olderBuildJSON(t),
		"record of another key": encodeRecord(other, &RunResult{App: "stub", Cycles: 1}),
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cell/"+key, bytes.NewReader(body))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT of %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for _, k := range []string{key, other} {
		if r, ok := store.Get(k); ok {
			t.Errorf("a rejected PUT stored %+v", r)
		}
	}
}

// TestRemoteGetRefusesJSON: a server of an older build answers GET with
// its JSON RunResult. The client counts an error and reports a miss, not
// a hit with a zero-filled field, and the Runner simulates the cell.
func TestRemoteGetRefusesJSON(t *testing.T) {
	body := olderBuildJSON(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet {
			w.Write(body)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	rc := newTimedRemote(t, RemoteConfig{URL: ts.URL}, timing{backoff: time.Millisecond})
	spec := Spec{App: "stub", Scale: 1, Threads: 1}
	if r, ok := rc.Get(spec.Key()); ok {
		t.Fatalf("Get of a JSON body hit %+v", r)
	}
	if s, _ := rc.RemoteStats(); s.Errors != 1 || s.Hits != 0 {
		t.Errorf("after one JSON answer: stats %+v, want 1 error and no hit", s)
	}
	var executions atomic.Uint64
	r := &Runner{Jobs: 1, Cache: rc, execute: func(Spec) (RunResult, error) {
		executions.Add(1)
		return RunResult{App: "stub", Cycles: 42}, nil
	}}
	if res, err := r.RunSpec(spec); err != nil || res.Cycles != 42 || executions.Load() != 1 {
		t.Errorf("RunSpec = %+v, %v after %d simulations; want the simulated 42 from one", res, err, executions.Load())
	}
}

// FuzzServerRequests: whatever body a client sends to the cell PUT or the
// three dispatch RPCs, the handler does not panic and answers 2xx, 400 or
// 404; a PUT it accepts is served back by GET as a record that decodes to
// the result the body held; a PUT it rejects stores nothing. The
// dispatcher's journal lives for the whole run; each input gets a fresh
// store.
func FuzzServerRequests(f *testing.F) {
	spec := Spec{App: "stub", Scale: 1, Threads: 1}
	key := spec.Key()
	rec := encodeRecord(key, &RunResult{App: "stub", Cycles: 7})
	js, err := json.Marshal(RunResult{App: "stub", Cycles: 7})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{
		rec, js, []byte("{}"),
		encodeRecord(Spec{App: "other"}.Key(), &RunResult{App: "other", Cycles: 7}),
		rec[:len(rec)-1],
	} {
		f.Add(uint8(0), body)
	}
	for route, v := range []any{
		SweepManifest{Cells: []WorkItem{{Key: key, Spec: spec}}},
		ClaimRequest{Worker: "w1", Max: 2},
		HeartbeatRequest{Worker: "w1", Keys: []string{key}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route+1), b)
	}
	d, _, err := OpenDurableDispatcher(f.TempDir(), DefaultLeaseTTL, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	routes := [...]string{"PUT /v1/cell/" + key, "POST /v1/sweep", "POST /v1/claim", "POST /v1/heartbeat"}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		h := NewServer(ServerConfig{Backend: NewMemCache(), Durable: d})
		method, path, _ := strings.Cut(routes[int(route)%len(routes)], " ")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if c := w.Code; c/100 != 2 && c != http.StatusBadRequest && c != http.StatusNotFound {
			t.Fatalf("%s %s: status %d: %s", method, path, c, w.Body)
		}
		if method != http.MethodPut {
			return
		}
		g := httptest.NewRecorder()
		h.ServeHTTP(g, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code/100 != 2 {
			if g.Code != http.StatusNotFound {
				t.Fatalf("a PUT answered %d stored a result: GET answered %d", w.Code, g.Code)
			}
			return
		}
		want, err := readRecord(key, body)
		if err != nil {
			t.Fatalf("the server accepted a body readRecord refuses: %v", err)
		}
		got, err := readRecord(key, g.Body.Bytes())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("GET after PUT = %+v, %v; want %+v", got, err, want)
		}
	})
}
