package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Worker-loop defaults for the WorkerPool's fields, and its patience.
const (
	defaultWorkerBatch   = 4
	defaultWorkerPoll    = 200 * time.Millisecond
	defaultWorkerMaxPoll = 5 * time.Second
	// workerGiveUp bounds how long consecutive claim failures are
	// tolerated before the worker exits with an error. Failures within
	// the window — a server restart, a network blip — are retried.
	workerGiveUp = time.Minute
	// maxBackoffShift caps the exponential poll growth.
	maxBackoffShift = 6
)

// WorkClient is the fleet-dispatch surface a WorkerPool drives. RemoteCache
// implements it over HTTP; tests implement it directly over a
// DurableDispatcher.
type WorkClient interface {
	// ClaimWork leases up to max pending cells.
	ClaimWork(worker string, max int) (ClaimResponse, error)
	// HeartbeatWork renews the worker's leases on keys.
	HeartbeatWork(worker string, keys []string) (HeartbeatResponse, error)
	// CompleteWork publishes a finished cell (idempotent: a late duplicate
	// from an expired lease writes the identical content-addressed result).
	CompleteWork(key string, r *RunResult) error
}

// WorkerStats is the outcome of one WorkerPool run.
type WorkerStats struct {
	// Claimed counts cells this worker leased; Completed counts results it
	// published. Completed < Claimed when cells failed or were abandoned.
	Claimed   uint64 `json:"claimed"`
	Completed uint64 `json:"completed"`
	// Failed counts cells whose simulation errored (the lease expires and
	// another worker retries them).
	Failed uint64 `json:"failed"`
	// Abandoned counts cells dropped on cancellation or whose publish
	// failed; like failures they fall back to lease expiry.
	Abandoned uint64 `json:"abandoned"`
	// LostLeases counts heartbeat renewals the server refused — each one
	// means this worker stalled past the TTL (or the cell completed
	// elsewhere) and redispatch may duplicate its in-flight work.
	LostLeases uint64 `json:"lostLeases"`
}

// WorkerPool turns a Runner into one fleet worker: a claim → simulate →
// publish loop against a dispatch-enabled gwcached, with leases renewed by
// a background heartbeat while a batch simulates. Empty claims (the queue
// is drained or momentarily contended) back off exponentially with jitter;
// the loop exits cleanly when the sweep completes, when ctx is cancelled,
// or — after a minute's patience, so a gwcached restart never kills a
// worker — when the server stays unreachable.
//
// The zero value is not usable: Runner and Client are required. All other
// fields default sanely.
type WorkerPool struct {
	Runner *Runner
	Client WorkClient
	// ID names this worker in the server's lease table (default host-pid).
	ID string
	// Batch is how many cells one claim requests (default 4). Larger
	// batches amortize HTTP round trips; smaller ones spread the tail of a
	// sweep more evenly across the fleet.
	Batch int
	// Poll is the base delay between empty claims (default 200ms); it
	// doubles per consecutive empty claim, up to MaxPoll (default 5s), with
	// up to 100% jitter so a fleet does not poll in lockstep.
	Poll    time.Duration
	MaxPoll time.Duration
	// IdleExit, when positive, exits the worker after that long without
	// receiving any work — e.g. no manifest was ever submitted, or the
	// remaining cells are leased to other workers indefinitely. Zero waits
	// forever (the operator owns the worker's lifetime).
	IdleExit time.Duration
	// Log receives worker lifecycle notices (default os.Stderr).
	Log io.Writer

	// giveUp, when positive, replaces workerGiveUp; in-package tests
	// shorten it.
	giveUp time.Duration

	claimed, completed, failed, abandoned atomic.Uint64
	lost                                  atomic.Uint64
}

// Stats returns the pool's counters.
func (p *WorkerPool) Stats() WorkerStats {
	return WorkerStats{
		Claimed:    p.claimed.Load(),
		Completed:  p.completed.Load(),
		Failed:     p.failed.Load(),
		Abandoned:  p.abandoned.Load(),
		LostLeases: p.lost.Load(),
	}
}

// defaultWorkerID identifies this process in lease tables.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Run claims and simulates cells until the sweep completes, ctx is
// cancelled, or the server stays unreachable past workerGiveUp. The returned
// stats are valid in every case, so a dying worker still reports what it
// finished.
func (p *WorkerPool) Run(ctx context.Context) (WorkerStats, error) {
	if p.Runner == nil || p.Client == nil {
		return WorkerStats{}, fmt.Errorf("harness: worker pool needs a Runner and a Client")
	}
	id := p.ID
	if id == "" {
		id = defaultWorkerID()
	}
	batch := p.Batch
	if batch <= 0 {
		batch = defaultWorkerBatch
	}
	giveUp := p.giveUp
	if giveUp <= 0 {
		giveUp = workerGiveUp
	}
	var (
		emptyPolls   int
		idleSince    = time.Now()
		failingSince time.Time
	)
	for {
		if err := ctx.Err(); err != nil {
			return p.Stats(), err
		}
		resp, err := p.Client.ClaimWork(id, batch)
		if err != nil {
			now := time.Now()
			if failingSince.IsZero() {
				failingSince = now
				p.logf("worker %s: claim failed (%v); retrying for up to %s", id, err, giveUp)
			}
			if now.Sub(failingSince) > giveUp {
				return p.Stats(), fmt.Errorf("harness: worker %s: no dispatch server for %s: %w", id, giveUp, err)
			}
			if !p.pause(ctx, emptyPolls) {
				return p.Stats(), ctx.Err()
			}
			emptyPolls++
			continue
		}
		failingSince = time.Time{}
		if len(resp.Items) == 0 {
			if resp.Status.Complete() {
				p.logf("worker %s: sweep complete (%d cells)", id, resp.Status.Total)
				return p.Stats(), nil
			}
			if p.IdleExit > 0 && time.Since(idleSince) > p.IdleExit {
				p.logf("worker %s: no work for %s; exiting", id, p.IdleExit)
				return p.Stats(), nil
			}
			if !p.pause(ctx, emptyPolls) {
				return p.Stats(), ctx.Err()
			}
			emptyPolls++
			continue
		}
		emptyPolls = 0
		p.runBatch(ctx, id, resp)
		idleSince = time.Now()
	}
}

// runBatch simulates one claimed batch with its lease kept alive, then
// publishes the results. Publication is skipped once ctx is dead: a worker
// being killed must look exactly like a crashed one, so the chaos suite
// exercises the same recovery path production would.
func (p *WorkerPool) runBatch(ctx context.Context, id string, resp ClaimResponse) {
	p.claimed.Add(uint64(len(resp.Items)))
	keys := make([]string, len(resp.Items))
	jobs := make([]Job, len(resp.Items))
	for i, it := range resp.Items {
		keys[i] = it.Key
		label := it.Label
		if label == "" {
			label = it.Spec.App
		}
		jobs[i] = Job{Label: label, Spec: it.Spec}
	}

	// Heartbeat at a third of the TTL so two renewals can be lost before a
	// healthy worker's lease expires.
	ttl := time.Duration(resp.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	interval := ttl / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				// Best-effort: a missed renewal is recovered by the next
				// tick; a lost lease is only informational (completion stays
				// idempotent either way).
				if hr, err := p.Client.HeartbeatWork(id, keys); err == nil {
					p.lost.Add(uint64(len(hr.Lost)))
				}
			}
		}
	}()

	cells := p.Runner.RunContext(ctx, jobs)
	close(hbStop)
	hbWG.Wait()

	for _, c := range cells {
		switch {
		case c.Err != nil && ctx.Err() != nil:
			p.abandoned.Add(1)
		case c.Err != nil:
			p.failed.Add(1)
			p.logf("worker %s: cell %s failed: %v", id, c.Job.Label, c.Err)
		case ctx.Err() != nil:
			// Simulated but killed before publishing: the lease expires and
			// another worker redoes the cell.
			p.abandoned.Add(1)
		default:
			if err := p.Client.CompleteWork(c.Job.Spec.Key(), &c.Result); err != nil {
				p.abandoned.Add(1)
				p.logf("worker %s: publish of %s failed (%v); cell falls back to lease expiry", id, c.Job.Label, err)
				continue
			}
			p.completed.Add(1)
		}
	}
}

// pause sleeps out the exponential poll backoff with jitter; it returns
// false if ctx died while waiting.
func (p *WorkerPool) pause(ctx context.Context, attempt int) bool {
	base := p.Poll
	if base <= 0 {
		base = defaultWorkerPoll
	}
	maxPoll := p.MaxPoll
	if maxPoll <= 0 {
		maxPoll = defaultWorkerMaxPoll
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	d := base << attempt
	if d > maxPoll {
		d = maxPoll
	}
	d += time.Duration(rand.Int64N(int64(d) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (p *WorkerPool) logf(format string, args ...any) {
	w := p.Log
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "harness: "+format+"\n", args...)
}
