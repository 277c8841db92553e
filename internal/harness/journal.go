package harness

import (
	"bytes"
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
// folds them into a compaction image. Compaction rewrites the whole lease
// table, so it is amortized over many appends; the threshold only bounds
// replay time and log size, never correctness.
const DefaultCompactEvery = 4096

// WAL record payloads, one JSON object per record. The single-letter type
// tag keeps records compact: a sweep of 10k cells writes one submit record
// per cell plus a lease and a completion each.
const (
	recSubmit   = "s" // Item entered the lease table (Done: already cached)
	recLease    = "l" // a pending cell was leased to Worker until Exp
	recExpire   = "x" // a lease expired and the cell was requeued
	recComplete = "c" // a cell completed (result stored)
)

// walRecord is one transition of the lease table (see
// DurableDispatcher.apply): the unit the WAL journals, replay applies, and
// a compaction image is made of.
type walRecord struct {
	T      string    `json:"t"`
	Key    string    `json:"k,omitempty"`
	Worker string    `json:"w,omitempty"`
	Exp    int64     `json:"e,omitempty"` // lease expiry, unix milliseconds
	Done   bool      `json:"d,omitempty"`
	Item   *WorkItem `json:"i,omitempty"`
}

// walImage is the compaction image: the records that rebuild the current
// table through apply — one submit per cell, the pending cells first and
// in dispatch order, each leased cell's submit followed by its lease —
// plus the reclaim counter, which no record carries.
type walImage struct {
	Records  []walRecord `json:"records"`
	Reclaims uint64      `json:"reclaims,omitempty"`
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

// Compact folds the WAL into an image of the current lease table. The
// dispatcher lock is held across the image and the truncate, so no
// transition can be journaled after the image yet truncated with the old
// log.
func (dd *DurableDispatcher) Compact() error {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	b, err := json.Marshal(dd.imageLocked())
	if err != nil {
		return fmt.Errorf("harness: journal image: %w", err)
	}
	return dd.journal.store.Compact(b)
}

// Close flushes and closes the journal. The dispatcher remains usable in
// memory but no further transitions are made durable.
func (dd *DurableDispatcher) Close() error { return dd.journal.Close() }

// imageLocked captures the lease table as a walImage; callers hold dd.mu.
func (dd *DurableDispatcher) imageLocked() walImage {
	img := walImage{Records: make([]walRecord, 0, len(dd.cells)+dd.leased), Reclaims: dd.reclaims}
	submit := func(c *dispatchCell) {
		img.Records = append(img.Records, walRecord{T: recSubmit, Item: &c.item, Done: c.state == stateDone})
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
			img.Records = append(img.Records, walRecord{T: recLease, Key: k, Worker: c.worker, Exp: c.expiry.UnixMilli()})
		}
	}
	return img
}

// RecoveryStats summarizes what OpenDurableDispatcher rebuilt.
type RecoveryStats struct {
	// SnapshotCells is how many cells the compaction image held; Records
	// is how many log records followed it on disk.
	SnapshotCells int `json:"snapshotCells"`
	Records       int `json:"records"`
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
// rebuilds the lease table it describes by applying the compaction image's
// records and then the log's, in order, through the same apply the live
// table uses — so the rebuilt table equals the one that wrote the WAL,
// pending-queue order included, up to heartbeat renewals (which are not
// journaled). ttl <= 0 selects DefaultLeaseTTL. cached, when non-nil, is
// the result store's membership test: any rebuilt cell that is not done
// but whose result is already stored is marked done — the belt-and-braces
// guarantee that a completion whose WAL record was lost (torn tail, failed
// fsync) is never re-dispatched. The rebuilt state is compacted
// immediately, so restart cost is proportional to the table, not the
// history. inj threads fault injection into the WAL's file operations.
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
	if rec.Snapshot != nil {
		// An image written by another format must fail loudly: a plain
		// Unmarshal would skip its unknown fields and rebuild an empty table.
		var img walImage
		dec := json.NewDecoder(bytes.NewReader(rec.Snapshot))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&img); err != nil {
			store.Close()
			return nil, stats, fmt.Errorf(`harness: %s holds a WAL snapshot that is not a lease-record image {"records":[…],"reclaims":n} (a WAL written by an older build needs a fresh -wal directory): %w`, dir, err)
		}
		for _, r := range img.Records {
			dd.apply(r)
		}
		dd.reclaims = img.Reclaims
		stats.SnapshotCells = len(dd.cells)
	}
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

	if len(rec.Records) > 0 || rec.Snapshot != nil {
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
