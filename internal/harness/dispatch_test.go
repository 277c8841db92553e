package harness

import (
	"sort"
	"strings"
	"testing"
	"time"
)

// manifestItems builds n well-formed WorkItems over distinct stub Specs.
func manifestItems(n int) []WorkItem {
	jobs := stubJobs(n)
	items := make([]WorkItem, n)
	for i, j := range jobs {
		items[i] = WorkItem{Key: j.Spec.Key(), Label: j.Label, Spec: j.Spec}
	}
	return items
}

// newTable opens a journaled lease table in a fresh temporary directory,
// closed when the test ends.
func newTable(t testing.TB, ttl time.Duration) *DurableDispatcher {
	t.Helper()
	dd, _, err := OpenDurableDispatcher(t.TempDir(), ttl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dd.Close() })
	return dd
}

// newManualDispatcher returns a lease table on a hand-cranked clock so
// lease expiry is driven deterministically.
func newManualDispatcher(t testing.TB, ttl time.Duration) (*DurableDispatcher, *time.Time) {
	d := newTable(t, ttl)
	now := time.Unix(1_700_000_000, 0)
	d.now = func() time.Time { return now }
	return d, &now
}

// checkInvariant: the three states always partition the manifest.
func checkInvariant(t *testing.T, s SweepStatus) {
	t.Helper()
	if s.Pending < 0 || s.Leased < 0 || s.Done < 0 || s.Pending+s.Leased+s.Done != s.Total {
		t.Fatalf("state partition violated: %+v", s)
	}
}

// TestDispatcherClaimEmptyQueue: claiming before any manifest exists must
// return no work and a zero, non-complete status; claiming after the sweep
// drains must return no work and a complete status.
func TestDispatcherClaimEmptyQueue(t *testing.T) {
	d, _ := newManualDispatcher(t, time.Minute)
	items, st := d.Claim("w1", 4)
	if len(items) != 0 {
		t.Fatalf("empty dispatcher handed out %d items", len(items))
	}
	if st.Total != 0 || st.Complete() {
		t.Fatalf("empty dispatcher status = %+v, want zero and not complete", st)
	}
	checkInvariant(t, st)

	d.Submit(manifestItems(2), nil)
	got, _ := d.Claim("w1", 4)
	for _, it := range got {
		if !d.Complete(it.Key) {
			t.Fatalf("Complete(%s) reported no state change", it.Key)
		}
	}
	items, st = d.Claim("w1", 4)
	if len(items) != 0 || !st.Complete() {
		t.Fatalf("drained sweep: items=%d status=%+v, want none/complete", len(items), st)
	}
	checkInvariant(t, st)
}

// TestDispatcherDoubleClaim: a leased cell is never handed to a second
// worker while its lease is live — including to its own holder.
func TestDispatcherDoubleClaim(t *testing.T) {
	d, _ := newManualDispatcher(t, time.Minute)
	d.Submit(manifestItems(1), nil)
	one, st := d.Claim("w1", 4)
	if len(one) != 1 || st.Leased != 1 {
		t.Fatalf("first claim = %d items, status %+v", len(one), st)
	}
	if again, _ := d.Claim("w2", 4); len(again) != 0 {
		t.Fatal("live lease double-claimed by a second worker")
	}
	if again, _ := d.Claim("w1", 4); len(again) != 0 {
		t.Fatal("live lease re-claimed by its own holder")
	}
}

// TestDispatcherLeaseExpiryReclaim: once the TTL passes without a
// heartbeat, the next claim — from any worker — receives the cell, and the
// reclaim is counted.
func TestDispatcherLeaseExpiryReclaim(t *testing.T) {
	d, now := newManualDispatcher(t, 100*time.Millisecond)
	d.Submit(manifestItems(1), nil)
	one, _ := d.Claim("w1", 1)
	if len(one) != 1 {
		t.Fatal("claim returned no work")
	}
	*now = now.Add(101 * time.Millisecond)
	got, st := d.Claim("w2", 1)
	if len(got) != 1 || got[0].Key != one[0].Key {
		t.Fatalf("expired cell not re-dispatched: %v", got)
	}
	if st.Reclaims != 1 {
		t.Errorf("reclaims = %d, want 1", st.Reclaims)
	}
	checkInvariant(t, st)
}

// TestDispatcherHeartbeatLifecycle: a heartbeat inside the TTL renews the
// lease (no reclaim even well past the original expiry); a heartbeat on an
// expired-and-reclaimed lease reports the key lost; heartbeating unknown
// keys or completed cells is lost, never a panic.
func TestDispatcherHeartbeatLifecycle(t *testing.T) {
	d, now := newManualDispatcher(t, 100*time.Millisecond)
	d.Submit(manifestItems(2), nil)
	one, _ := d.Claim("w1", 1)
	key := one[0].Key

	// Renewal: advance 60ms, heartbeat, advance another 60ms — the original
	// lease would have expired, the renewed one has not.
	*now = now.Add(60 * time.Millisecond)
	renewed, lost := d.Heartbeat("w1", []string{key})
	if len(renewed) != 1 || len(lost) != 0 {
		t.Fatalf("heartbeat = renewed %v lost %v, want the live key renewed", renewed, lost)
	}
	*now = now.Add(60 * time.Millisecond)
	if stolen, _ := d.Claim("w2", 1); len(stolen) != 1 && stolen != nil {
		t.Fatalf("unexpected claim result %v", stolen)
	} else if len(stolen) == 1 && stolen[0].Key == key {
		t.Fatal("renewed lease was stolen")
	}

	// Expiry: let the renewed lease lapse and a rival reclaim it.
	*now = now.Add(200 * time.Millisecond)
	stolen, _ := d.Claim("w3", 2)
	found := false
	for _, it := range stolen {
		if it.Key == key {
			found = true
		}
	}
	if !found {
		t.Fatal("expired lease never re-dispatched")
	}
	renewed, lost = d.Heartbeat("w1", []string{key, strings.Repeat("0", 64)})
	if len(renewed) != 0 || len(lost) != 2 {
		t.Fatalf("heartbeat on lost lease = renewed %v lost %v, want both lost", renewed, lost)
	}
}

// TestDispatcherCompleteAfterExpiryIdempotent: a worker whose lease
// expired can still publish — the first Complete wins, later ones
// (including the reclaiming worker's) are no-ops, and the done count never
// double-counts a cell.
func TestDispatcherCompleteAfterExpiryIdempotent(t *testing.T) {
	d, now := newManualDispatcher(t, 50*time.Millisecond)
	d.Submit(manifestItems(1), nil)
	one, _ := d.Claim("slow", 1)
	key := one[0].Key
	*now = now.Add(60 * time.Millisecond)
	if again, _ := d.Claim("fast", 1); len(again) != 1 {
		t.Fatal("expired cell not re-dispatched")
	}
	// The slow worker finishes anyway and publishes first.
	if !d.Complete(key) {
		t.Fatal("late completion rejected")
	}
	// The reclaiming worker publishes the identical result afterwards.
	if d.Complete(key) {
		t.Fatal("second completion reported a state change")
	}
	st := d.Status()
	if st.Done != 1 || !st.Complete() {
		t.Fatalf("status after duplicate completion = %+v, want done=1/complete", st)
	}
	checkInvariant(t, st)
	if d.Complete(strings.Repeat("a", 64)) {
		t.Fatal("completion of an untracked key reported a state change")
	}
}

// TestDispatcherSubmitSkipsCachedAndResubmits: cells whose results exist
// are marked done without dispatch — the server-restart recovery path —
// and resubmitting a manifest never duplicates or resets cells.
func TestDispatcherSubmitSkipsCachedAndResubmits(t *testing.T) {
	d, _ := newManualDispatcher(t, time.Minute)
	items := manifestItems(4)
	cachedKey := items[1].Key
	sum := d.Submit(items, func(key string) bool { return key == cachedKey })
	if sum.Queued != 3 || sum.Cached != 1 || sum.Known != 0 || sum.Rejected != 0 {
		t.Fatalf("first submit = %+v, want 3 queued / 1 cached", sum)
	}
	st := d.Status()
	if st.Total != 4 || st.Done != 1 || st.Pending != 3 {
		t.Fatalf("status after submit = %+v", st)
	}
	// Lease one cell, then resubmit the whole manifest: nothing changes.
	d.Claim("w1", 1)
	sum = d.Submit(items, nil)
	if sum.Known != 4 || sum.Queued != 0 || sum.Cached != 0 {
		t.Fatalf("resubmit = %+v, want 4 known", sum)
	}
	st2 := d.Status()
	if st2.Total != 4 || st2.Done != 1 || st2.Leased != 1 {
		t.Fatalf("resubmit disturbed state: %+v → %+v", st, st2)
	}
}

// TestDispatcherSubmitRejectsBadItems: malformed keys and key/Spec
// mismatches never enter the queue — a mismatched manifest would otherwise
// dispatch cells whose completion PUT lands under a different key, so the
// sweep could never finish.
func TestDispatcherSubmitRejectsBadItems(t *testing.T) {
	d, _ := newManualDispatcher(t, time.Minute)
	good := manifestItems(2)
	bad := []WorkItem{
		{Key: "short", Spec: good[0].Spec},
		{Key: strings.Repeat("b", 64), Spec: good[1].Spec}, // shape-valid, wrong hash
		good[0],
	}
	sum := d.Submit(bad, nil)
	if sum.Rejected != 2 || sum.Queued != 1 {
		t.Fatalf("submit = %+v, want 2 rejected / 1 queued", sum)
	}
	if st := d.Status(); st.Total != 1 {
		t.Fatalf("rejected items leaked into the manifest: %+v", st)
	}
}

// TestDispatcherClaimBatching: one claim hands out at most max cells, in
// FIFO manifest order, and max <= 0 degrades to a single cell.
func TestDispatcherClaimBatching(t *testing.T) {
	d, _ := newManualDispatcher(t, time.Minute)
	items := manifestItems(5)
	d.Submit(items, nil)
	batch, st := d.Claim("w1", 3)
	if len(batch) != 3 || st.Leased != 3 || st.Pending != 2 {
		t.Fatalf("claim(3) = %d items, status %+v", len(batch), st)
	}
	for i, it := range batch {
		if it.Key != items[i].Key {
			t.Errorf("batch[%d] = %s, want FIFO order %s", i, it.Key, items[i].Key)
		}
	}
	if one, _ := d.Claim("w2", 0); len(one) != 1 {
		t.Errorf("claim(0) handed out %d cells, want 1", len(one))
	}
}

// TestDispatcherReapCompleteSameTick pins the Complete-vs-reap race at
// one deterministic clock tick, in both interleavings. Whichever side wins,
// the cell ends done exactly once: done=1, pending=0, no double count, and
// the loser's Complete reports no state change.
func TestDispatcherReapCompleteSameTick(t *testing.T) {
	// Interleaving 1: the result PUT (Complete) lands first, a reap (here
	// Status) runs in the same tick. The completed cell must not be
	// reclaimed back to pending.
	d, now := newManualDispatcher(t, 50*time.Millisecond)
	d.Submit(manifestItems(1), nil)
	one, _ := d.Claim("w1", 1)
	key := one[0].Key
	*now = now.Add(60 * time.Millisecond) // lease now expired
	if !d.Complete(key) {
		t.Fatal("completion at expiry tick rejected")
	}
	if n := d.Status().Reclaims; n != 0 {
		t.Fatalf("reap reclaimed %d done cells, want 0", n)
	}
	st := d.Status()
	if st.Done != 1 || st.Pending != 0 || st.Leased != 0 || st.Reclaims != 0 {
		t.Fatalf("complete-then-reap status = %+v, want done=1 only", st)
	}
	checkInvariant(t, st)

	// Interleaving 2: a reap (Status) runs first in the tick, then the
	// worker's Complete arrives. The reclaim moves the cell to pending; Complete
	// finishes it from there — once.
	d, now = newManualDispatcher(t, 50*time.Millisecond)
	d.Submit(manifestItems(1), nil)
	one, _ = d.Claim("w1", 1)
	key = one[0].Key
	*now = now.Add(60 * time.Millisecond)
	if n := d.Status().Reclaims; n != 1 {
		t.Fatalf("reap reclaimed %d cells, want 1", n)
	}
	if !d.Complete(key) {
		t.Fatal("completion of a reclaimed-pending cell rejected")
	}
	if d.Complete(key) {
		t.Fatal("second completion reported a state change")
	}
	st = d.Status()
	if st.Done != 1 || st.Pending != 0 || st.Leased != 0 || st.Reclaims != 1 {
		t.Fatalf("reap-then-complete status = %+v, want done=1 reclaims=1", st)
	}
	checkInvariant(t, st)

	// Interleaving 3: reclaim, re-claim by a second worker, then both
	// workers publish. One done, one state change, reclaim counted once.
	d, now = newManualDispatcher(t, 50*time.Millisecond)
	d.Submit(manifestItems(1), nil)
	one, _ = d.Claim("w1", 1)
	key = one[0].Key
	*now = now.Add(60 * time.Millisecond)
	if again, _ := d.Claim("w2", 1); len(again) != 1 || again[0].Key != key {
		t.Fatal("expired cell not re-dispatched to the second worker")
	}
	if !d.Complete(key) {
		t.Fatal("first publication rejected")
	}
	if d.Complete(key) {
		t.Fatal("second worker's publication reported a state change")
	}
	st = d.Status()
	if st.Done != 1 || st.Pending != 0 || st.Leased != 0 || st.Reclaims != 1 {
		t.Fatalf("reclaim/re-claim/double-complete status = %+v, want done=1 reclaims=1", st)
	}
	checkInvariant(t, st)
}

// TestDispatcherReapRequeueDeterministic pins the reap's requeue order:
// a mass expiry returns cells to the queue sorted by (expiry, key), never
// in map-iteration order, so crash recovery dispatches identically on
// every run.
func TestDispatcherReapRequeueDeterministic(t *testing.T) {
	d, now := newManualDispatcher(t, 50*time.Millisecond)
	d.Submit(manifestItems(6), nil)
	// Two claim waves 10ms apart: wave 1 (4 cells) expires before wave 2
	// (2 cells), so wave-1 keys must requeue first — sorted within a wave.
	wave1, _ := d.Claim("w1", 4)
	*now = now.Add(10 * time.Millisecond)
	wave2, _ := d.Claim("w2", 2)
	*now = now.Add(60 * time.Millisecond) // both waves expired

	var want []string
	for _, wave := range [][]WorkItem{wave1, wave2} {
		keys := make([]string, len(wave))
		for i, it := range wave {
			keys[i] = it.Key
		}
		sort.Strings(keys)
		want = append(want, keys...)
	}

	if n := d.Status().Reclaims; n != 6 {
		t.Fatalf("reaped %d, want 6", n)
	}
	got, _ := d.Claim("w3", 6)
	if len(got) != 6 {
		t.Fatalf("re-claimed %d cells, want 6", len(got))
	}
	for i, it := range got {
		if it.Key != want[i] {
			t.Fatalf("requeue position %d = %s, want %s (expiry, key order)", i, it.Key, want[i])
		}
	}
}
