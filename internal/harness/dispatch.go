package harness

import (
	"container/list"
	"sort"
	"sync"
	"time"
)

// DefaultLeaseTTL is the lease duration gwcached grants a claimed cell when
// no -lease-ttl is configured. It must comfortably exceed one cell's
// simulation time at paper scale so healthy workers renew well before
// expiry, while keeping the redispatch delay after a worker crash short
// relative to a whole sweep.
const DefaultLeaseTTL = 90 * time.Second

// WorkItem is one cell of a distributed sweep manifest: the
// content-addressed key plus the Spec a worker needs to simulate it. The
// key is redundant with the Spec (it must equal Spec.Key()) and the
// dispatcher verifies the pair at submit time, so a manifest produced by a
// client on incompatible code is rejected loudly instead of producing
// cells that can never complete.
type WorkItem struct {
	Key   string `json:"key"`
	Label string `json:"label,omitempty"`
	Spec  Spec   `json:"spec"`
}

// SweepStatus is a point-in-time snapshot of a dispatched sweep.
type SweepStatus struct {
	// Total is how many distinct cells the manifest(s) submitted.
	Total int `json:"total"`
	// Pending cells are queued and unclaimed; Leased cells are held by a
	// worker under an unexpired lease; Done cells have a published result.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Reclaims counts expired leases returned to the queue — each one is a
	// worker crash, partition, or stall the dispatcher recovered from.
	Reclaims uint64 `json:"reclaims,omitempty"`
}

// Complete reports that a sweep was submitted and every cell finished.
func (s SweepStatus) Complete() bool { return s.Total > 0 && s.Done == s.Total }

// SubmitSummary reports what a manifest submission did.
type SubmitSummary struct {
	// Queued cells were new and entered the pending queue.
	Queued int `json:"queued"`
	// Cached cells already had a result in the store and were marked done
	// without dispatch (this is how a server restart rebuilds a mid-sweep
	// queue: resubmit the manifest; finished cells are skipped).
	Cached int `json:"cached"`
	// Known cells were already tracked by the dispatcher (idempotent
	// resubmission); their state is unchanged.
	Known int `json:"known"`
	// Rejected cells had a malformed key or a key that does not match
	// Spec.Key() on this server's code version.
	Rejected int `json:"rejected"`
}

// cellState is the lease state machine: pending → leased → done, with
// leased → pending on expiry (reap) and any state → done on a published
// result (Complete tolerates completion after expiry — results are
// content-addressed, so a late duplicate write is byte-identical).
type cellState uint8

const (
	statePending cellState = iota
	stateLeased
	stateDone
)

// dispatchCell is one tracked cell. worker and expiry are set only while
// the cell is leased.
type dispatchCell struct {
	item   WorkItem
	state  cellState
	worker string
	expiry time.Time
	// queued is the cell's place in the pending queue, nil unless pending.
	queued *list.Element
}

// DurableDispatcher is the server-side work queue of a distributed sweep: a
// lease table over the cells of one or more submitted manifests, journaled
// to a write-ahead log so it survives a crash. Workers claim batches of
// pending cells, renew their leases by heartbeat, and complete cells
// implicitly by publishing results (the PUT /v1/cell path calls Complete).
// Leases that expire — crashed worker, network partition, a stall longer
// than the TTL — are returned to the queue wherever the table is read
// (Submit, Claim, Heartbeat and Status all reap first), so every cell is
// eventually simulated by *some* worker: at-least-once execution, made
// exactly-once-observable by the content-addressed store.
//
// Every transition is a walRecord and apply is the only code that makes
// one: the methods below decide which records to make, apply changes the
// table and journals the record, and OpenDurableDispatcher rebuilds the
// table after a restart by applying the same records again. Callers that
// need durability call Persist after the mutations they acknowledge (the
// dispatch server does this on submit, claim, and completion boundaries).
//
// A DurableDispatcher is mutex-guarded and safe for concurrent use; it has
// no HTTP dependencies so the whole lease lifecycle is unit-testable.
type DurableDispatcher struct {
	mu  sync.Mutex
	ttl time.Duration
	// now is the clock; tests substitute a manual one to drive expiry
	// deterministically.
	now func() time.Time
	// journal receives every record apply accepts. It is nil only while
	// OpenDurableDispatcher rebuilds the table (replay and the store
	// backfill), whose result its startup compaction writes back.
	journal *Journal

	cells map[string]*dispatchCell
	// queue holds the pending cells, and only those, in dispatch order.
	queue *list.List

	leased   int
	done     int
	reclaims uint64
}

// TTL returns the lease duration granted to claimed cells.
func (dd *DurableDispatcher) TTL() time.Duration { return dd.ttl }

// Journal returns the dispatcher's WAL journal.
func (dd *DurableDispatcher) Journal() *Journal { return dd.journal }

// apply is the lease table's only transition: it changes the cell r names
// and the counters as r says, journals r, and reports whether r changed
// anything. The live methods make a record only for a transition they have
// decided is legal; replay may offer one that no longer is — the
// duplicate completion of a retried publish — and apply ignores it, so
// replay is idempotent and monotone toward done. Callers hold dd.mu.
func (dd *DurableDispatcher) apply(r walRecord) bool {
	var c *dispatchCell
	if r.T != recSubmit && r.T != recReclaims {
		if c = dd.cells[r.Key]; c == nil {
			return false
		}
	}
	switch r.T {
	case recSubmit:
		if r.Item == nil || dd.cells[r.Item.Key] != nil {
			return false
		}
		c = &dispatchCell{item: *r.Item}
		dd.cells[r.Item.Key] = c
		if r.Done {
			c.state = stateDone
			dd.done++
		} else {
			c.queued = dd.queue.PushBack(c)
		}
	case recLease:
		if c.state != statePending {
			return false
		}
		dd.queue.Remove(c.queued)
		c.queued = nil
		c.state, c.worker, c.expiry = stateLeased, r.Worker, time.UnixMilli(r.Exp)
		dd.leased++
	case recExpire:
		if c.state != stateLeased {
			return false
		}
		c.state, c.worker, c.expiry = statePending, "", time.Time{}
		c.queued = dd.queue.PushBack(c)
		dd.leased--
		dd.reclaims++
	case recReclaims:
		if r.N <= dd.reclaims {
			return false
		}
		dd.reclaims = r.N
	case recComplete:
		switch c.state {
		case stateDone:
			return false
		case stateLeased:
			dd.leased--
		case statePending:
			dd.queue.Remove(c.queued)
			c.queued = nil
		}
		c.state, c.worker, c.expiry = stateDone, "", time.Time{}
		dd.done++
	default:
		return false
	}
	if dd.journal != nil {
		dd.journal.append(r)
	}
	return true
}

// Submit registers a manifest's cells. New cells are queued unless cached
// reports their result already exists in the store, in which case they are
// marked done immediately — resubmitting a manifest after a server restart
// therefore rebuilds exactly the unfinished remainder of the sweep. Cells
// already tracked are left untouched, so duplicate submissions (every
// worker host running with -submit, say) are harmless. Cells whose key is
// malformed or does not match their Spec are rejected and counted.
// Expired leases are reaped first, as on every read of the table.
func (dd *DurableDispatcher) Submit(items []WorkItem, cached func(key string) bool) SubmitSummary {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	dd.reapLocked()
	var sum SubmitSummary
	for _, it := range items {
		switch {
		case !ValidKey(it.Key) || it.Spec.Key() != it.Key:
			sum.Rejected++
		case dd.cells[it.Key] != nil:
			sum.Known++
		default:
			done := cached != nil && cached(it.Key)
			dd.apply(walRecord{T: recSubmit, Key: it.Key, Item: &it, Done: done})
			if done {
				sum.Cached++
			} else {
				sum.Queued++
			}
		}
	}
	return sum
}

// Claim leases up to max pending cells to worker and returns them with the
// sweep's status. Expired leases are reaped first, so a claim arriving
// after a worker crash hands out the crashed worker's cells. An empty item
// list with an incomplete status means every remaining cell is leased
// elsewhere: back off and claim again.
func (dd *DurableDispatcher) Claim(worker string, max int) ([]WorkItem, SweepStatus) {
	if max <= 0 {
		max = 1
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	dd.reapLocked()
	exp := dd.now().Add(dd.ttl).UnixMilli()
	var out []WorkItem
	for len(out) < max && dd.queue.Len() > 0 {
		c := dd.queue.Front().Value.(*dispatchCell)
		dd.apply(walRecord{T: recLease, Key: c.item.Key, Worker: worker, Exp: exp})
		out = append(out, c.item)
	}
	return out, dd.statusLocked()
}

// Heartbeat renews worker's leases on keys and reports which were renewed
// and which are lost — expired and reclaimed by another worker, or already
// complete. A worker keeps simulating lost cells (the result is still
// valid and idempotent to publish) but learns its lease is gone.
//
// Renewals are deliberately not records: journaling every renewal would
// bloat the log, and losing one merely shortens a recovered lease to its
// last journaled expiry (the next read then requeues it, which is safe).
func (dd *DurableDispatcher) Heartbeat(worker string, keys []string) (renewed, lost []string) {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	dd.reapLocked()
	for _, k := range keys {
		c, ok := dd.cells[k]
		if ok && c.state == stateLeased && c.worker == worker {
			c.expiry = dd.now().Add(dd.ttl)
			renewed = append(renewed, k)
		} else {
			lost = append(lost, k)
		}
	}
	return renewed, lost
}

// Complete marks key done, from any state: pending (an out-of-band client
// published the result), leased (the normal path), or leased-by-someone-
// else after an expiry reclaim (completion-after-expiry; the second result
// is byte-identical, last write wins). It reports whether the call changed
// state; an unknown key — a result outside any sweep — or a done one is a
// no-op that journals nothing.
func (dd *DurableDispatcher) Complete(key string) bool {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	return dd.apply(walRecord{T: recComplete, Key: key})
}

// Status returns the sweep's current counters.
func (dd *DurableDispatcher) Status() SweepStatus {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	dd.reapLocked()
	return dd.statusLocked()
}

// reapLocked returns every expired lease to the pending queue.
func (dd *DurableDispatcher) reapLocked() {
	now := dd.now()
	// Collect expired leases first, then requeue in (expiry, key) order:
	// iterating the cell map directly would requeue in map order, handing a
	// mass expiry's cells back out in a different order on every run.
	var expired []*dispatchCell
	for _, c := range dd.cells {
		if c.state == stateLeased && c.expiry.Before(now) {
			expired = append(expired, c)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		a, b := expired[i], expired[j]
		if !a.expiry.Equal(b.expiry) {
			return a.expiry.Before(b.expiry)
		}
		return a.item.Key < b.item.Key
	})
	for _, c := range expired {
		dd.apply(walRecord{T: recExpire, Key: c.item.Key})
	}
}

func (dd *DurableDispatcher) statusLocked() SweepStatus {
	return SweepStatus{
		Total:    len(dd.cells),
		Pending:  dd.queue.Len(),
		Leased:   dd.leased,
		Done:     dd.done,
		Reclaims: dd.reclaims,
	}
}
