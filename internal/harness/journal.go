package harness

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ghostwriter/internal/fault"
	"ghostwriter/internal/wal"
)

// DefaultCompactEvery is how many WAL records accumulate before Persist
// compacts the log. Compaction rewrites the whole lease table, so it is
// amortized over many appends; the threshold only bounds replay time and
// log size, never correctness.
const DefaultCompactEvery = 4096

// WAL record payloads, one JSON object per record. The single-letter type
// tag keeps records compact: a sweep of 10k cells writes one submit record
// per cell plus a lease and a completion each.
const (
	recSubmit   = "s" // Item entered the lease table (Done: already cached)
	recLease    = "l" // a pending cell was leased to Worker until Exp
	recExpire   = "x" // a lease expired and the cell was requeued
	recComplete = "c" // a cell completed (result stored)
	recReclaims = "r" // the reclaim counter is at least N (compaction only)
)

// walRecord is one transition of the lease table (see
// DurableDispatcher.apply): the unit the WAL journals, replay applies, and
// a compacted log is made of.
type walRecord struct {
	T      string    `json:"t"`
	Key    string    `json:"k,omitempty"`
	Worker string    `json:"w,omitempty"`
	Exp    int64     `json:"e,omitempty"` // lease expiry, unix milliseconds
	Done   bool      `json:"d,omitempty"`
	Item   *WorkItem `json:"i,omitempty"`
	N      uint64    `json:"n,omitempty"` // the reclaim count of an "r" record
}

// Journal writes the dispatcher's records to a WAL. Appends are buffered
// in the OS page cache; Sync fsyncs them — the server calls it on
// submission, claim, and completion boundaries, so anything it has
// acknowledged survives a kill -9. An append failure is sticky until the
// next Sync reports it, which maps it onto the request that must fail.
type Journal struct {
	store *wal.Store

	mu  sync.Mutex
	err error // sticky append error, reported and cleared by Sync
}

// append journals one record. apply calls it under the dispatcher lock, so
// appends are already serialized.
func (j *Journal) append(r walRecord) {
	b, err := json.Marshal(r)
	if err == nil {
		err = j.store.Append(b, false)
	}
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		j.err = fmt.Errorf("harness: journal %q record: %w", r.T, err)
	}
	j.mu.Unlock()
}

// Sync makes every append so far durable. It returns the first append
// error since the last Sync, if any, so a lost record fails the request
// that produced it instead of vanishing.
func (j *Journal) Sync() error {
	j.mu.Lock()
	err := j.err
	j.err = nil
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return j.store.Sync()
}

// Appends reports records written since the last compaction.
func (j *Journal) Appends() uint64 { return j.store.Appends() }

// Close flushes and closes the underlying WAL.
func (j *Journal) Close() error { return j.store.Close() }

// Persist makes every journaled transition durable and compacts the WAL
// once DefaultCompactEvery records accumulate. A compaction failure is
// logged, not returned: the un-compacted WAL still holds the full state.
func (dd *DurableDispatcher) Persist() error {
	if err := dd.journal.Sync(); err != nil {
		return err
	}
	if dd.journal.Appends() >= DefaultCompactEvery {
		if err := dd.Compact(); err != nil {
			fmt.Fprintf(os.Stderr, "harness: journal compaction failed (state remains in the WAL): %v\n", err)
		}
	}
	return nil
}

// Compact replaces the WAL with the records that rebuild the current
// lease table. The dispatcher lock is held across the image and the swap,
// so no transition can be journaled after the image into the log it
// replaces.
func (dd *DurableDispatcher) Compact() error {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	img := dd.imageLocked()
	recs := make([][]byte, len(img))
	for i, r := range img {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("harness: journal image: %w", err)
		}
		recs[i] = b
	}
	return dd.journal.store.Compact(recs)
}

// Close flushes and closes the journal. The dispatcher remains usable in
// memory but no further transitions are made durable.
func (dd *DurableDispatcher) Close() error { return dd.journal.Close() }

// imageLocked returns the records that rebuild the lease table through
// apply: the reclaim counter, then one submit per cell, the pending cells
// first and in dispatch order, each leased cell's submit followed by its
// lease. Callers hold dd.mu.
func (dd *DurableDispatcher) imageLocked() []walRecord {
	img := make([]walRecord, 0, 1+len(dd.cells)+dd.leased)
	if dd.reclaims > 0 {
		img = append(img, walRecord{T: recReclaims, N: dd.reclaims})
	}
	submit := func(c *dispatchCell) {
		img = append(img, walRecord{T: recSubmit, Item: &c.item, Done: c.state == stateDone})
	}
	for e := dd.queue.Front(); e != nil; e = e.Next() {
		submit(e.Value.(*dispatchCell))
	}
	var rest []string
	for k, c := range dd.cells {
		if c.state != statePending {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		c := dd.cells[k]
		submit(c)
		if c.state == stateLeased {
			img = append(img, walRecord{T: recLease, Key: k, Worker: c.worker, Exp: c.expiry.UnixMilli()})
		}
	}
	return img
}

// RecoveryStats summarizes what OpenDurableDispatcher rebuilt.
type RecoveryStats struct {
	// Records is how many records the log held.
	Records int `json:"records"`
	// TornBytes counts discarded tail bytes of an interrupted append.
	TornBytes int64 `json:"tornBytes,omitempty"`
	// Cells/Pending/Leased/Done describe the rebuilt lease table.
	Cells   int `json:"cells"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Backfilled counts completions recovered from the result store rather
	// than the WAL — a completion whose record was lost but whose result
	// reached the content-addressed store is still a completion.
	Backfilled int `json:"backfilled,omitempty"`
}

// OpenDurableDispatcher opens (creating if needed) the WAL in dir and
// rebuilds the lease table it describes by applying its records, in
// order, through the same apply the live table uses — so the rebuilt
// table equals the one that wrote the WAL, pending-queue order included,
// up to heartbeat renewals (which are not journaled). ttl <= 0 selects
// DefaultLeaseTTL. cached, when non-nil, is the result store's membership
// test: any rebuilt cell that is not done but whose result is already
// stored is marked done — the belt-and-braces guarantee that a completion
// whose WAL record was lost (torn tail, failed fsync) is never
// re-dispatched. The rebuilt state is compacted immediately, so restart
// cost is proportional to the table, not the history. inj threads fault
// injection into the WAL's file operations.
func OpenDurableDispatcher(dir string, ttl time.Duration, inj *fault.Injector, cached func(key string) bool) (*DurableDispatcher, RecoveryStats, error) {
	store, rec, err := wal.Open(dir, inj)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	dd := &DurableDispatcher{ttl: ttl, now: time.Now, cells: make(map[string]*dispatchCell), queue: list.New()}
	stats := RecoveryStats{Records: len(rec.Records), TornBytes: rec.TornBytes}
	for _, b := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(b, &r); err != nil {
			// An intact frame with an undecodable payload is a version skew
			// or a bug, not a torn write; refuse to guess at the state.
			store.Close()
			return nil, stats, fmt.Errorf("harness: recover record: %w", err)
		}
		dd.apply(r)
	}
	if cached != nil {
		stats.Backfilled = dd.completeCached(cached)
	}
	dd.journal = &Journal{store: store}
	st := dd.statusLocked()
	stats.Cells, stats.Pending, stats.Leased, stats.Done = st.Total, st.Pending, st.Leased, st.Done

	if len(rec.Records) > 0 {
		if err := dd.Compact(); err != nil {
			fmt.Fprintf(os.Stderr, "harness: startup compaction failed (state remains in the WAL): %v\n", err)
		}
	}
	return dd, stats, nil
}

// completeCached marks done every rebuilt cell whose result is already in
// the store, reporting how many completions were recovered that way.
func (dd *DurableDispatcher) completeCached(cached func(key string) bool) int {
	var candidates []string
	for k, c := range dd.cells {
		if c.state != stateDone {
			candidates = append(candidates, k)
		}
	}
	sort.Strings(candidates)
	n := 0
	for _, k := range candidates {
		if cached(k) && dd.Complete(k) {
			n++
		}
	}
	return n
}
