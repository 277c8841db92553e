package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// localWorkClient implements WorkClient directly over a lease table and a
// MemCache — the server's behaviour without the HTTP layer, so WorkerPool
// logic is testable in-process.
type localWorkClient struct {
	d     *DurableDispatcher
	store *MemCache
}

func (c *localWorkClient) ClaimWork(worker string, max int) (ClaimResponse, error) {
	items, st := c.d.Claim(worker, max)
	return ClaimResponse{Items: items, TTLMS: c.d.TTL().Milliseconds(), Status: st}, nil
}

func (c *localWorkClient) HeartbeatWork(worker string, keys []string) (HeartbeatResponse, error) {
	renewed, lost := c.d.Heartbeat(worker, keys)
	return HeartbeatResponse{Renewed: renewed, Lost: lost, TTLMS: c.d.TTL().Milliseconds()}, nil
}

func (c *localWorkClient) CompleteWork(key string, r *RunResult) error {
	if r.IsZero() {
		return fmt.Errorf("empty RunResult")
	}
	if err := c.store.Put(key, r); err != nil {
		return err
	}
	c.d.Complete(key)
	return nil
}

// stubExecute is the chaos/worker tests' simulation stand-in; the result is
// deliberately non-zero so it passes the server's vacuous-result check.
func stubExecute(s Spec) (RunResult, error) {
	return RunResult{App: s.App, Cycles: uint64(s.Scale)}, nil
}

// newStubWorker builds a fast-polling WorkerPool over a stubbed Runner.
func newStubWorker(id string, client WorkClient, batch int) *WorkerPool {
	r := NewRunner(2)
	r.execute = stubExecute
	return &WorkerPool{
		Runner:  r,
		Client:  client,
		ID:      id,
		Batch:   batch,
		Poll:    time.Millisecond,
		MaxPoll: 5 * time.Millisecond,
		giveUp:  5 * time.Second,
		Log:     io.Discard,
	}
}

// TestWorkerPoolDrainsSweep: one worker drains a whole manifest, publishes
// every result, and exits on its own when the sweep status reads complete.
func TestWorkerPoolDrainsSweep(t *testing.T) {
	d := newTable(t, time.Minute)
	store := NewMemCache()
	items := manifestItems(10)
	d.Submit(items, nil)

	p := newStubWorker("solo", &localWorkClient{d: d, store: store}, 3)
	stats, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("worker failed: %v", err)
	}
	if stats.Claimed != 10 || stats.Completed != 10 || stats.Failed != 0 || stats.Abandoned != 0 {
		t.Fatalf("stats = %+v, want 10 claimed / 10 completed", stats)
	}
	if st := d.Status(); !st.Complete() || st.Reclaims != 0 {
		t.Fatalf("sweep status = %+v, want complete with no reclaims", st)
	}
	for _, it := range items {
		if _, ok := store.Get(it.Key); !ok {
			t.Errorf("cell %s never published", it.Label)
		}
	}
}

// TestWorkerPoolPublishesLocalCacheHits: a cell served from the worker's
// local cache must still be published — completion is an explicit publish,
// not a side effect of simulating, or locally-cached cells would be
// re-dispatched forever.
func TestWorkerPoolPublishesLocalCacheHits(t *testing.T) {
	d := newTable(t, time.Minute)
	store := NewMemCache()
	items := manifestItems(4)
	d.Submit(items, nil)

	var executed atomic.Uint64
	local := NewMemCache()
	warm := items[2]
	local.Put(warm.Key, &RunResult{App: warm.Spec.App, Cycles: 7})

	p := newStubWorker("cached", &localWorkClient{d: d, store: store}, 2)
	p.Runner.Cache = local
	p.Runner.execute = func(s Spec) (RunResult, error) {
		executed.Add(1)
		return stubExecute(s)
	}
	stats, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("worker failed: %v", err)
	}
	if stats.Completed != 4 {
		t.Fatalf("completed %d cells, want 4 (cache hit not published?)", stats.Completed)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("executed %d simulations, want 3 (one cell was pre-cached)", got)
	}
	if _, ok := store.Get(warm.Key); !ok {
		t.Error("locally-cached cell never reached the shared store")
	}
	if st := d.Status(); !st.Complete() {
		t.Fatalf("sweep status = %+v, want complete", st)
	}
}

// TestWorkerPoolIdleExit: with no manifest ever submitted, a worker with
// IdleExit set exits cleanly instead of polling forever.
func TestWorkerPoolIdleExit(t *testing.T) {
	d := newTable(t, time.Minute)
	p := newStubWorker("idle", &localWorkClient{d: d, store: NewMemCache()}, 1)
	p.IdleExit = 30 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle worker exited with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle worker never exited")
	}
}

// failingClient refuses every claim, as if no server were listening.
type failingClient struct{}

func (failingClient) ClaimWork(string, int) (ClaimResponse, error) {
	return ClaimResponse{}, errors.New("connection refused")
}
func (failingClient) HeartbeatWork(string, []string) (HeartbeatResponse, error) {
	return HeartbeatResponse{}, errors.New("connection refused")
}
func (failingClient) CompleteWork(string, *RunResult) error {
	return errors.New("connection refused")
}

// TestWorkerPoolGivesUpEventually: claim failures are tolerated inside the
// patience window (a gwcached restart must not kill the fleet) but a server
// that never comes back ends the worker with an error, not a hang.
func TestWorkerPoolGivesUpEventually(t *testing.T) {
	p := newStubWorker("orphan", failingClient{}, 1)
	p.giveUp = 30 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker with an unreachable server exited nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never gave up on an unreachable server")
	}
}

// TestWorkerPoolRequiresRunnerAndClient: the zero value fails fast instead
// of panicking mid-claim.
func TestWorkerPoolRequiresRunnerAndClient(t *testing.T) {
	var p WorkerPool
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("zero WorkerPool ran")
	}
}

// TestRunContextCancelMarksRemainingCells: cancelling a sweep mid-dispatch
// errors the undispatched cells with ctx.Err() while cells already
// simulated keep their results — the worker uses this split to decide what
// to publish and what to abandon.
func TestRunContextCancelMarksRemainingCells(t *testing.T) {
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	r.execute = func(s Spec) (RunResult, error) {
		if n.Add(1) == 2 {
			cancel() // kill the sweep from inside cell 2
		}
		return stubExecute(s)
	}
	cells := r.RunContext(ctx, stubJobs(6))
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	var done, cancelled int
	for _, c := range cells {
		switch {
		case c.Err == nil:
			done++
		case errors.Is(c.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("cell %s: unexpected error %v", c.Job.Label, c.Err)
		}
	}
	if done < 2 || cancelled == 0 || done+cancelled != 6 {
		t.Fatalf("done=%d cancelled=%d, want >=2 finished and the rest cancelled", done, cancelled)
	}
}
