package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghostwriter/internal/fault"
)

// The chaos suite (`go test -run Chaos -race`) exercises the fleet's crash
// recovery end to end over real HTTP: killed workers, lease contention,
// server restarts, and completion after expiry. Every scenario must end
// with the full grid exactly-once-observable in the store and every worker
// goroutine exited.

const chaosWait = 30 * time.Second

// newChaosClient returns a RemoteCache with fast retries for chaos tests.
func newChaosClient(t *testing.T, url string) *RemoteCache {
	t.Helper()
	return newTimedRemote(t, RemoteConfig{URL: url}, timing{timeout: 2 * time.Second, retries: 1, backoff: time.Millisecond})
}

// newChaosPool builds a fast-polling worker over a stubbed simulation.
func newChaosPool(id string, client WorkClient, batch int, exec func(Spec) (RunResult, error)) *WorkerPool {
	r := NewRunner(2)
	r.execute = exec
	return &WorkerPool{
		Runner:  r,
		Client:  client,
		ID:      id,
		Batch:   batch,
		Poll:    2 * time.Millisecond,
		MaxPoll: 20 * time.Millisecond,
		giveUp:  20 * time.Second,
		Log:     io.Discard,
	}
}

// workerResult joins one WorkerPool.Run goroutine.
type workerResult struct {
	stats WorkerStats
	err   error
}

func runPool(p *WorkerPool, ctx context.Context) chan workerResult {
	done := make(chan workerResult, 1)
	go func() {
		stats, err := p.Run(ctx)
		done <- workerResult{stats, err}
	}()
	return done
}

func waitWorker(t *testing.T, name string, done chan workerResult) workerResult {
	t.Helper()
	select {
	case res := <-done:
		return res
	case <-time.After(chaosWait):
		t.Fatalf("worker %s hung", name)
		return workerResult{}
	}
}

// TestChaosWorkerKilledMidCellRecovers is the headline scenario: four
// workers share a sweep, one is killed mid-simulation, and the sweep still
// completes — the victim's lease expires, another worker reclaims the cell,
// and the grid ends exactly-once-observable with no hung workers.
func TestChaosWorkerKilledMidCellRecovers(t *testing.T) {
	store := NewMemCache()
	disp := newTable(t, 150*time.Millisecond)
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store, Durable: disp}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)

	items := manifestItems(12)
	resp, err := rc.SubmitSweep(items)
	if err != nil || resp.Queued != 12 {
		t.Fatalf("submit = %+v, %v; want 12 queued", resp, err)
	}

	// The victim claims one cell and blocks inside its simulation until the
	// test ends — a worker wedged mid-cell, then killed.
	var (
		started   = make(chan struct{})
		release   = make(chan struct{})
		startOnce sync.Once
	)
	victim := newChaosPool("victim", rc, 1, func(s Spec) (RunResult, error) {
		startOnce.Do(func() { close(started) })
		<-release
		return stubExecute(s)
	})
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	victimDone := runPool(victim, victimCtx)

	select {
	case <-started:
	case <-time.After(chaosWait):
		t.Fatal("victim never claimed a cell")
	}
	kill() // heartbeats stop; the victim's lease will expire unrenewed

	var healthy []chan workerResult
	for i := 0; i < 3; i++ {
		p := newChaosPool("healthy-"+string(rune('a'+i)), rc, 2, stubExecute)
		healthy = append(healthy, runPool(p, context.Background()))
	}
	var completed uint64
	for i, done := range healthy {
		res := waitWorker(t, "healthy", done)
		if res.err != nil {
			t.Errorf("healthy worker %d failed: %v", i, res.err)
		}
		completed += res.stats.Completed
	}

	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.Total != 12 || st.Done != 12 {
		t.Fatalf("sweep status = %+v, want 12/12 done", st)
	}
	if st.Reclaims == 0 {
		t.Error("killed worker's lease was never reclaimed")
	}
	if completed != 12 {
		t.Errorf("healthy workers published %d cells, want all 12", completed)
	}
	for _, it := range items {
		if _, ok := store.Get(it.Key); !ok {
			t.Errorf("cell %s missing from the store", it.Label)
		}
	}

	// Unblock the victim: it must exit with the cancellation, having
	// abandoned (not published) its in-flight cell.
	close(release)
	res := waitWorker(t, "victim", victimDone)
	if !errors.Is(res.err, context.Canceled) {
		t.Errorf("victim exited with %v, want context.Canceled", res.err)
	}
	if res.stats.Abandoned == 0 {
		t.Errorf("victim stats = %+v, want the killed cell abandoned", res.stats)
	}
}

// TestChaosLeaseExpiryUnderConcurrentClaims hammers one lease table from
// eight goroutines with a tiny TTL; each claimant abandons its first few
// cells (simulated crashes) and completes the rest. The sweep must still
// converge with every cell done exactly once and the state partition intact
// throughout — this is the -race workout for the lease table itself.
func TestChaosLeaseExpiryUnderConcurrentClaims(t *testing.T) {
	d := newTable(t, 25*time.Millisecond)
	items := manifestItems(40)
	d.Submit(items, nil)

	var (
		wg        sync.WaitGroup
		abandoned atomic.Uint64
		violation atomic.Bool
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			drops := 2 // each worker "crashes" on its first two cells
			worker := "w" + string(rune('0'+id))
			for {
				batch, st := d.Claim(worker, 2)
				if st.Pending < 0 || st.Leased < 0 || st.Done < 0 ||
					st.Pending+st.Leased+st.Done != st.Total {
					violation.Store(true)
					return
				}
				if st.Complete() {
					return
				}
				if len(batch) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				for _, it := range batch {
					if drops > 0 {
						drops--
						abandoned.Add(1)
						continue // never complete: the lease must expire
					}
					d.Heartbeat(worker, []string{it.Key})
					d.Complete(it.Key)
				}
			}
		}(w)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(chaosWait):
		t.Fatal("contended sweep never converged")
	}
	if violation.Load() {
		t.Fatal("status partition violated under concurrent claims")
	}
	st := d.Status()
	if !st.Complete() || st.Done != 40 {
		t.Fatalf("final status = %+v, want 40/40 done", st)
	}
	if ab := abandoned.Load(); ab == 0 || st.Reclaims < ab {
		t.Errorf("abandoned %d cells but dispatcher reclaimed %d", ab, st.Reclaims)
	}
}

// TestChaosServerRestartMidSweep kills gwcached while two workers are
// mid-sweep and brings a fresh instance up on the same address and data
// directory. Resubmitting the manifest rebuilds the queue minus the cells
// already on disk; the workers ride out the outage inside their patience
// window and finish the sweep — no worker fails, no cell is lost.
func TestChaosServerRestartMidSweep(t *testing.T) {
	dir := t.TempDir()
	cache1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	dd1, _, err := OpenDurableDispatcher(filepath.Join(dir, "wal"), 250*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dd1.Close()
	ts := httptest.NewUnstartedServer(NewServer(ServerConfig{Backend: cache1, Durable: dd1}))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()

	rc := newChaosClient(t, "http://"+addr)
	items := manifestItems(16)
	if resp, err := rc.SubmitSweep(items); err != nil || resp.Queued != 16 {
		t.Fatalf("submit = %+v, %v; want 16 queued", resp, err)
	}

	// Slow the cells slightly so the restart lands mid-sweep.
	slowExec := func(s Spec) (RunResult, error) {
		time.Sleep(3 * time.Millisecond)
		return stubExecute(s)
	}
	w1 := runPool(newChaosPool("restart-a", rc, 2, slowExec), context.Background())
	w2 := runPool(newChaosPool("restart-b", rc, 2, slowExec), context.Background())

	stored := func() int {
		n := 0
		for _, it := range items {
			if _, ok := cache1.Get(it.Key); ok {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(chaosWait)
	for stored() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress before the restart")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash: drop every live connection and the listener.
	ts.CloseClientConnections()
	ts.Close()
	time.Sleep(50 * time.Millisecond) // a real outage, not an instant flip

	// Restart on the same address over the same data directory, with a
	// fresh WAL directory: the lease table starts empty, as after losing
	// the journal, and only the kept store carries the sweep's progress.
	cache2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dd2, _, err := OpenDurableDispatcher(filepath.Join(dir, "wal-fresh"), 250*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dd2.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts2 := httptest.NewUnstartedServer(NewServer(ServerConfig{Backend: cache2, Durable: dd2}))
	ts2.Listener.Close()
	ts2.Listener = ln2
	ts2.Start()
	defer ts2.Close()

	// The operator's recovery step: resubmit the manifest. Cells already on
	// disk come back cached; only the remainder is re-queued.
	resp, err := rc.SubmitSweep(items)
	if err != nil {
		t.Fatalf("resubmit after restart failed: %v", err)
	}
	if resp.Cached == 0 || resp.Cached+resp.Queued != 16 {
		t.Fatalf("resubmit = %+v, want pre-restart cells cached and the rest queued", resp)
	}

	for i, done := range []chan workerResult{w1, w2} {
		res := waitWorker(t, "restart", done)
		if res.err != nil {
			t.Errorf("worker %d failed across the restart: %v", i+1, res.err)
		}
	}
	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() {
		t.Fatalf("sweep status after restart = %+v, want complete", st)
	}
	if got := stored(); got != 16 {
		t.Errorf("store holds %d/16 cells after the restart", got)
	}
}

// TestChaosCompleteAfterExpiryHTTP drives the full completion-after-expiry
// path over the wire: a slow worker's lease expires, a fast worker reclaims
// the cell, and both publish — the duplicate PUT is accepted, the cell is
// done exactly once, and the slow worker's heartbeat reports the lease lost.
func TestChaosCompleteAfterExpiryHTTP(t *testing.T) {
	store := NewMemCache()
	disp := newTable(t, 40*time.Millisecond)
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store, Durable: disp}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)

	items := manifestItems(1)
	if _, err := rc.SubmitSweep(items); err != nil {
		t.Fatal(err)
	}
	claimed, err := rc.ClaimWork("slow", 1)
	if err != nil || len(claimed.Items) != 1 {
		t.Fatalf("claim = %+v, %v", claimed, err)
	}
	cell := claimed.Items[0]

	time.Sleep(60 * time.Millisecond) // lease expires unrenewed
	reclaimed, err := rc.ClaimWork("fast", 1)
	if err != nil || len(reclaimed.Items) != 1 || reclaimed.Items[0].Key != cell.Key {
		t.Fatalf("reclaim = %+v, %v; want the expired cell", reclaimed, err)
	}
	hb, err := rc.HeartbeatWork("slow", []string{cell.Key})
	if err != nil || len(hb.Lost) != 1 || len(hb.Renewed) != 0 {
		t.Fatalf("slow heartbeat = %+v, %v; want the lease reported lost", hb, err)
	}

	res, _ := stubExecute(cell.Spec)
	if err := rc.CompleteWork(cell.Key, &res); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	if err := rc.CompleteWork(cell.Key, &res); err != nil {
		t.Fatalf("duplicate completion rejected: %v", err)
	}
	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.Done != 1 || st.Reclaims != 1 {
		t.Fatalf("status = %+v, want 1/1 done with 1 reclaim", st)
	}
	if _, ok := store.Get(cell.Key); !ok {
		t.Error("completed cell missing from the store")
	}
}

// TestChaosSlowWorkerHeartbeatKeepsLease: a healthy worker whose cells run
// several times longer than the lease TTL keeps them through heartbeats —
// no reclaim, no lost lease, no duplicated work.
func TestChaosSlowWorkerHeartbeatKeepsLease(t *testing.T) {
	store := NewMemCache()
	disp := newTable(t, 250*time.Millisecond)
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: store, Durable: disp}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)

	items := manifestItems(2)
	if _, err := rc.SubmitSweep(items); err != nil {
		t.Fatal(err)
	}
	pool := newChaosPool("tortoise", rc, 2, func(s Spec) (RunResult, error) {
		time.Sleep(600 * time.Millisecond) // > 2× the lease TTL
		return stubExecute(s)
	})
	res := waitWorker(t, "tortoise", runPool(pool, context.Background()))
	if res.err != nil {
		t.Fatalf("slow worker failed: %v", res.err)
	}
	if res.stats.Completed != 2 || res.stats.LostLeases != 0 {
		t.Errorf("stats = %+v, want 2 completed with no lost leases", res.stats)
	}
	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.Reclaims != 0 {
		t.Errorf("status = %+v, want complete with zero reclaims", st)
	}
}

// TestDispatchAgainstCacheOnlyServer: the fleet RPCs against a gwcached
// built without a dispatcher fail with ErrNoDispatcher — a clear operator
// error, not a mysterious 404 retry loop.
func TestDispatchAgainstCacheOnlyServer(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: NewMemCache()}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)
	if _, err := rc.SubmitSweep(manifestItems(1)); !errors.Is(err, ErrNoDispatcher) {
		t.Errorf("SubmitSweep error = %v, want ErrNoDispatcher", err)
	}
	if _, err := rc.ClaimWork("w", 1); !errors.Is(err, ErrNoDispatcher) {
		t.Errorf("ClaimWork error = %v, want ErrNoDispatcher", err)
	}
	if _, err := rc.HeartbeatWork("w", nil); !errors.Is(err, ErrNoDispatcher) {
		t.Errorf("HeartbeatWork error = %v, want ErrNoDispatcher", err)
	}
	if _, err := rc.SweepStatus(); !errors.Is(err, ErrNoDispatcher) {
		t.Errorf("SweepStatus error = %v, want ErrNoDispatcher", err)
	}
}

// newDurableChaosClient returns a client patient enough to ride out a
// gwcached kill-and-restart inside a single RPC's retry cycle, with the
// health prober readopting the restarted server quickly.
func newDurableChaosClient(t *testing.T, urls ...string) *RemoteCache {
	t.Helper()
	return newTimedRemote(t, RemoteConfig{URLs: urls}, timing{timeout: 2 * time.Second, retries: 6, backoff: 10 * time.Millisecond, reprobe: 10 * time.Millisecond})
}

// simCounter counts simulations per cell key — the exactly-once probe.
type simCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newSimCounter() *simCounter { return &simCounter{counts: make(map[string]int)} }

func (c *simCounter) exec(delay time.Duration) func(Spec) (RunResult, error) {
	return func(s Spec) (RunResult, error) {
		c.mu.Lock()
		c.counts[s.Key()]++
		c.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		return stubExecute(s)
	}
}

// assertExactlyOnce fails on any cell simulated zero times without a prior
// result (lost) or more than once (double-simulated).
func (c *simCounter) assertExactlyOnce(t *testing.T, items []WorkItem) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, it := range items {
		switch n := c.counts[it.Key]; {
		case n == 0:
			t.Errorf("cell %s was never simulated — a completion was lost", it.Label)
		case n > 1:
			t.Errorf("cell %s simulated %d times — a completion was double-dispatched", it.Label, n)
		}
	}
}

// memberOf adapts a cache to the recovery backstop's membership test.
func memberOf(c CacheBackend) func(string) bool {
	return func(key string) bool {
		_, ok := c.Get(key)
		return ok
	}
}

// TestChaosDurableKillRestartExactlyOnce is the PR's acceptance scenario:
// gwcached journals to a WAL, is killed mid-sweep, and a fresh process on
// the same address recovers the lease table from the WAL — no manifest
// resubmission, no lost completion, no cell simulated twice. The lease TTL
// comfortably exceeds the outage, so the leases the dead server had
// acknowledged protect their claimants' in-flight work across the restart.
func TestChaosDurableKillRestartExactlyOnce(t *testing.T) {
	cacheDir, walDir := t.TempDir(), t.TempDir()
	cache1, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	dd1, _, err := OpenDurableDispatcher(walDir, 10*time.Second, nil, memberOf(cache1))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ts := httptest.NewUnstartedServer(NewServer(ServerConfig{Backend: cache1, Durable: dd1}))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()

	rc := newDurableChaosClient(t, "http://"+addr)
	items := manifestItems(16)
	if resp, err := rc.SubmitSweep(items); err != nil || resp.Queued != 16 {
		t.Fatalf("submit = %+v, %v; want 16 queued", resp, err)
	}

	sims := newSimCounter()
	w1 := runPool(newChaosPool("durable-a", rc, 2, sims.exec(3*time.Millisecond)), context.Background())
	w2 := runPool(newChaosPool("durable-b", rc, 2, sims.exec(3*time.Millisecond)), context.Background())

	stored := func() int {
		n := 0
		for _, it := range items {
			if _, ok := cache1.Get(it.Key); ok {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(chaosWait)
	for stored() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress before the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill: connections dropped, listener gone. The WAL is NOT flushed
	// beyond what the server already fsynced per acknowledged request —
	// that is the whole durability claim under test.
	ts.CloseClientConnections()
	ts.Close()
	time.Sleep(50 * time.Millisecond)

	// Restart: recover the lease table from the WAL on the same address.
	cache2, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	dd2, stats, err := OpenDurableDispatcher(walDir, 10*time.Second, nil, memberOf(cache2))
	if err != nil {
		t.Fatalf("WAL recovery failed: %v", err)
	}
	if stats.Cells != 16 {
		t.Fatalf("recovery stats %+v, want the full 16-cell manifest back", stats)
	}
	if stats.Done < 4 {
		t.Errorf("recovery stats %+v, want the >=4 pre-kill completions back", stats)
	}
	ts2 := restartOn(t, addr, NewServer(ServerConfig{Backend: cache2, Durable: dd2}))
	defer func() { ts2.Close(); dd2.Close() }()

	// No resubmission: the workers ride out the outage and the recovered
	// server finishes the sweep from its journaled state.
	for i, done := range []chan workerResult{w1, w2} {
		res := waitWorker(t, "durable", done)
		if res.err != nil {
			t.Errorf("worker %d failed across the kill: %v", i+1, res.err)
		}
	}
	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.Total != 16 {
		t.Fatalf("sweep after restart = %+v, want 16/16 done", st)
	}
	if got := stored2(cache2, items); got != 16 {
		t.Errorf("store holds %d/16 cells after the restart", got)
	}
	sims.assertExactlyOnce(t, items)
}

// stored2 counts items present in c.
func stored2(c CacheBackend, items []WorkItem) int {
	n := 0
	for _, it := range items {
		if _, ok := c.Get(it.Key); ok {
			n++
		}
	}
	return n
}

// TestChaosWarmStandbyFailover: the primary is killed mid-sweep and a
// standby on a DIFFERENT address replays the same WAL over the same store.
// The client's failover election moves every worker to the standby; the
// sweep finishes exactly-once with no resubmission.
func TestChaosWarmStandbyFailover(t *testing.T) {
	cacheDir, walDir := t.TempDir(), t.TempDir()
	cache1, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	dd1, _, err := OpenDurableDispatcher(walDir, 10*time.Second, nil, memberOf(cache1))
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(NewServer(ServerConfig{Backend: cache1, Durable: dd1}))

	// The standby's address must be known to the client up front: bind its
	// listener now, start serving only at takeover (connections queue in
	// the backlog meanwhile, which is exactly what a booting standby does).
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standbyURL := "http://" + lnB.Addr().String()

	rc := newDurableChaosClient(t, primary.URL, standbyURL)
	items := manifestItems(12)
	if resp, err := rc.SubmitSweep(items); err != nil || resp.Queued != 12 {
		t.Fatalf("submit = %+v, %v; want 12 queued", resp, err)
	}

	sims := newSimCounter()
	w1 := runPool(newChaosPool("standby-a", rc, 2, sims.exec(3*time.Millisecond)), context.Background())
	w2 := runPool(newChaosPool("standby-b", rc, 2, sims.exec(3*time.Millisecond)), context.Background())

	deadline := time.Now().Add(chaosWait)
	for stored2(cache1, items) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress before the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill the primary; bring the standby up from the shared WAL + store.
	primary.CloseClientConnections()
	primary.Close()
	cache2, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	dd2, stats, err := OpenDurableDispatcher(walDir, 10*time.Second, nil, memberOf(cache2))
	if err != nil {
		t.Fatalf("standby WAL replay failed: %v", err)
	}
	if stats.Cells != 12 {
		t.Fatalf("standby recovered %d cells, want 12 (stats %+v)", stats.Cells, stats)
	}
	standby := httptest.NewUnstartedServer(NewServer(ServerConfig{Backend: cache2, Durable: dd2}))
	standby.Listener.Close()
	standby.Listener = lnB
	standby.Start()
	defer func() { standby.Close(); dd2.Close() }()

	for i, done := range []chan workerResult{w1, w2} {
		res := waitWorker(t, "standby", done)
		if res.err != nil {
			t.Errorf("worker %d failed across the failover: %v", i+1, res.err)
		}
	}
	st, err := rc.SweepStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.Total != 12 {
		t.Fatalf("sweep after failover = %+v, want 12/12 done", st)
	}
	if got := stored2(cache2, items); got != 12 {
		t.Errorf("store holds %d/12 cells after the failover", got)
	}
	sims.assertExactlyOnce(t, items)
}

// TestChaosSeededFsyncFaults runs a sweep against a durable server whose
// WAL fsyncs fail on a seeded, reproducible schedule. Every injected
// failure turns into a 5xx the client retries; the sweep must converge
// exactly-once, and a post-mortem WAL replay must hold every completion.
func TestChaosSeededFsyncFaults(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			walDir := t.TempDir()
			store := NewMemCache()
			inj := fault.New(fault.Schedule(seed, []string{"wal.sync"}, 60, fault.Fail)...)
			dd, _, err := OpenDurableDispatcher(walDir, 500*time.Millisecond, inj, memberOf(store))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(ServerConfig{Backend: store, Durable: dd}))
			rc := newDurableChaosClient(t, ts.URL)

			items := manifestItems(20)
			if _, err := rc.SubmitSweep(items); err != nil {
				t.Fatalf("submit under fsync faults: %v", err)
			}
			sims := newSimCounter()
			w1 := runPool(newChaosPool("fsync-a", rc, 2, sims.exec(0)), context.Background())
			w2 := runPool(newChaosPool("fsync-b", rc, 2, sims.exec(0)), context.Background())
			for i, done := range []chan workerResult{w1, w2} {
				res := waitWorker(t, "fsync", done)
				if res.err != nil {
					t.Errorf("worker %d failed under fsync faults: %v", i+1, res.err)
				}
			}
			st, err := rc.SweepStatus()
			if err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, st)
			if !st.Complete() || st.Total != 20 {
				t.Fatalf("sweep under fsync faults = %+v, want 20/20 done", st)
			}
			if got := stored2(store, items); got != 20 {
				t.Errorf("store holds %d/20 cells", got)
			}
			sims.assertExactlyOnce(t, items)
			if inj.Count("wal.sync") == 0 {
				t.Fatal("the schedule never reached an fsync — the test exercised nothing")
			}
			ts.Close()
			dd.Close()

			// Post-mortem: a fresh replay of the WAL must hold every
			// completion the clients were told succeeded.
			dd2, _, err := OpenDurableDispatcher(walDir, time.Hour, nil, memberOf(store))
			if err != nil {
				t.Fatalf("post-mortem WAL replay failed: %v", err)
			}
			defer dd2.Close()
			if rst := dd2.Status(); !rst.Complete() || rst.Done != 20 {
				t.Errorf("replayed WAL shows %+v, want all 20 completions durable", rst)
			}
		})
	}
}
