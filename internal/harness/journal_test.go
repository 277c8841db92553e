package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ghostwriter/internal/fault"
)

// openDurable opens a DurableDispatcher in dir with a long TTL (so real-
// clock reaping never interferes) and fails the test on error.
func openDurable(t *testing.T, dir string, inj *fault.Injector, cached func(string) bool) (*DurableDispatcher, RecoveryStats) {
	t.Helper()
	dd, stats, err := OpenDurableDispatcher(dir, time.Hour, inj, cached)
	if err != nil {
		t.Fatalf("OpenDurableDispatcher(%s): %v", dir, err)
	}
	return dd, stats
}

// drainKeys claims every pending cell from d (one at a time, so the claim
// order is observable) and returns the keys in dispatch order.
func drainKeys(d *DurableDispatcher, worker string) []string {
	var keys []string
	for {
		items, _ := d.Claim(worker, 1)
		if len(items) == 0 {
			return keys
		}
		keys = append(keys, items[0].Key)
	}
}

// reopenEqual closes dd, recovers a second table from its WAL in dir on
// dd's clock, and fails unless the two are equal: status, every cell's
// state, worker and expiry, and the order in which both hand out their
// pending cells. dd is drained after its journal is closed, so the drain's
// leases stay out of the WAL the recovered table was read from.
func reopenEqual(t testing.TB, dd *DurableDispatcher, dir string) {
	t.Helper()
	if err := dd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, stats, err := OpenDurableDispatcher(dir, dd.ttl, nil, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	rec.now = dd.now
	if live, got := dd.statusLocked(), rec.statusLocked(); got != live {
		t.Fatalf("recovered status %+v, live %+v (recovery stats %+v)", got, live, stats)
	}
	for k, c := range dd.cells {
		r := rec.cells[k]
		if r == nil || r.state != c.state || r.worker != c.worker || !r.expiry.Equal(c.expiry) {
			t.Fatalf("cell %.8s: recovered %+v, live %+v", k, r, c)
		}
	}
	live, got := drainKeys(dd, "drain"), drainKeys(rec, "drain")
	if !slices.Equal(got, live) {
		t.Fatalf("recovered dispatch order %.8q, live %.8q", got, live)
	}
}

// TestDurableDispatcherRecoversAcrossReopen: the baseline WAL round trip.
// A submit/claim/complete sequence, persisted and closed, must come back
// from a reopen with the identical lease table — counts, per-cell states,
// and the dispatch order of the remaining queue.
func TestDurableDispatcherRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	items := manifestItems(6)

	dd, _ := openDurable(t, dir, nil, nil)
	if sum := dd.Submit(items, nil); sum.Queued != 6 {
		t.Fatalf("submit = %+v, want 6 queued", sum)
	}
	claimed, _ := dd.Claim("w1", 2)
	if len(claimed) != 2 {
		t.Fatalf("claimed %d cells, want 2", len(claimed))
	}
	if !dd.Complete(claimed[0].Key) {
		t.Fatal("complete of a leased cell reported no change")
	}
	if err := dd.Persist(); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	before := dd.Status()
	if err := dd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	dd2, stats := openDurable(t, dir, nil, nil)
	defer dd2.Close()
	after := dd2.Status()
	checkInvariant(t, after)
	if after != before {
		t.Fatalf("recovered status %+v, want %+v", after, before)
	}
	if stats.Cells != 6 || stats.Done != 1 || stats.Leased != 1 || stats.Pending != 4 {
		t.Errorf("recovery stats %+v, want 6 cells / 1 done / 1 leased / 4 pending", stats)
	}
	// The surviving lease must still belong to w1: its heartbeat renews, a
	// stranger's does not.
	renewed, lost := dd2.Heartbeat("w1", []string{claimed[1].Key})
	if len(renewed) != 1 || len(lost) != 0 {
		t.Errorf("w1 heartbeat after recovery = %v/%v, want its lease renewed", renewed, lost)
	}
	// The queue must come back in FIFO order: the four never-claimed cells.
	wantOrder := []string{items[2].Key, items[3].Key, items[4].Key, items[5].Key}
	gotOrder := drainKeys(dd2, "w2")
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("recovered queue has %d cells, want %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("recovered dispatch order %v, want %v", gotOrder, wantOrder)
		}
	}
}

// TestDurableRecoveryDuplicatedCompletion: retried publishes journal the
// same completion more than once. Replay must count it once.
func TestDurableRecoveryDuplicatedCompletion(t *testing.T) {
	dir := t.TempDir()
	items := manifestItems(3)

	dd, _ := openDurable(t, dir, nil, nil)
	dd.Submit(items, nil)
	claimed, _ := dd.Claim("w1", 1)
	key := claimed[0].Key
	dd.Complete(key)
	// Forge the duplicates a retried publish would journal.
	b, err := json.Marshal(walRecord{T: recComplete, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dd.Journal().store.Append(b, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := dd.Persist(); err != nil {
		t.Fatal(err)
	}
	dd.Close()

	dd2, stats := openDurable(t, dir, nil, nil)
	defer dd2.Close()
	st := dd2.Status()
	checkInvariant(t, st)
	if st.Done != 1 || st.Total != 3 || st.Pending != 2 {
		t.Fatalf("recovered status %+v, want exactly 1 done of 3", st)
	}
	if stats.Done != 1 {
		t.Errorf("recovery stats counted %d done, want 1", stats.Done)
	}
	if dd2.Complete(key) {
		t.Error("recovered cell completed again — duplicate replay inflated state")
	}
}

// TestDurableCompactionEquivalence: the same transition history recovered
// from a compacted log must be indistinguishable from the raw log — same
// counters, same per-cell states, same dispatch order of the remainder.
func TestDurableCompactionEquivalence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	items := manifestItems(8)

	// Drive the identical sequence on both; compact only A (repeatedly, so
	// a compacted log with a tail is exercised too, not just a bare image).
	drive := func(dir string, compact bool) SweepStatus {
		dd, _ := openDurable(t, dir, nil, nil)
		defer dd.Close()
		dd.Submit(items, nil)
		if compact {
			if err := dd.Compact(); err != nil {
				t.Fatalf("compact after submit: %v", err)
			}
		}
		c1, _ := dd.Claim("w1", 3)
		dd.Complete(c1[0].Key)
		if compact {
			if err := dd.Compact(); err != nil {
				t.Fatalf("compact mid-sweep: %v", err)
			}
		}
		// Post-compaction tail: another claim and completion.
		c2, _ := dd.Claim("w2", 2)
		dd.Complete(c2[0].Key)
		if err := dd.Persist(); err != nil {
			t.Fatal(err)
		}
		return dd.Status()
	}
	stA := drive(dirA, true)
	stB := drive(dirB, false)
	if stA != stB {
		t.Fatalf("pre-recovery divergence: %+v vs %+v", stA, stB)
	}

	if ents, err := os.ReadDir(dirA); err != nil || len(ents) != 1 || ents[0].Name() != "wal.log" {
		t.Fatalf("compacted WAL directory holds %v (%v), want wal.log alone", ents, err)
	}
	ddA, _ := openDurable(t, dirA, nil, nil)
	defer ddA.Close()
	ddB, _ := openDurable(t, dirB, nil, nil)
	defer ddB.Close()
	sA, sB := ddA.Status(), ddB.Status()
	checkInvariant(t, sA)
	if sA != sB || sA != stA {
		t.Fatalf("recovered states diverge: compacted %+v, log %+v, original %+v", sA, sB, stA)
	}
	oA := drainKeys(ddA, "wx")
	oB := drainKeys(ddB, "wx")
	if len(oA) != len(oB) {
		t.Fatalf("dispatch order lengths diverge: %d vs %d", len(oA), len(oB))
	}
	for i := range oA {
		if oA[i] != oB[i] {
			t.Fatalf("dispatch order diverges at %d: %v vs %v", i, oA, oB)
		}
	}
}

// TestDurableCrashDuringCompaction: a compaction that dies at either of
// its steps — before the temp file is written, or after its fsync but
// before the rename — leaves the old log whole, and the table reopened
// from it equals the live one exactly, the reclaim count and the dispatch
// order included.
func TestDurableCrashDuringCompaction(t *testing.T) {
	for _, point := range []string{"wal.compact", "wal.rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.New(fault.Rule{Point: point, N: 1, Kind: fault.Fail})
			dd, _ := openDurable(t, dir, inj, nil)
			now := time.Unix(1_700_000_000, 0)
			dd.now = func() time.Time { return now }
			dd.Submit(manifestItems(4), nil)
			dd.Claim("w1", 1)
			now = now.Add(2 * time.Hour) // past the TTL
			if st := dd.Status(); st.Reclaims != 1 {
				t.Fatalf("status %+v, want the lease reclaimed once", st)
			}
			if err := dd.Persist(); err != nil {
				t.Fatal(err)
			}
			if err := dd.Compact(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("compaction = %v, want the injected %s failure", err, point)
			}
			reopenEqual(t, dd, dir)
		})
	}
}

// TestDurableRecoveryStoreBackstop: a completion whose WAL record never
// made it (torn tail, failed fsync) but whose result reached the
// content-addressed store is recovered from the store — the cell comes
// back done, never re-dispatched.
func TestDurableRecoveryStoreBackstop(t *testing.T) {
	dir := t.TempDir()
	items := manifestItems(4)

	dd, _ := openDurable(t, dir, nil, nil)
	dd.Submit(items, nil)
	claimed, _ := dd.Claim("w1", 1)
	lost := claimed[0].Key
	if err := dd.Persist(); err != nil {
		t.Fatal(err)
	}
	// The worker published its result, but the completion record is gone
	// with the crash: close without journaling the completion.
	dd.Close()

	dd2, stats := openDurable(t, dir, nil, func(key string) bool { return key == lost })
	defer dd2.Close()
	if stats.Backfilled != 1 {
		t.Fatalf("recovery backfilled %d completions from the store, want 1", stats.Backfilled)
	}
	st := dd2.Status()
	checkInvariant(t, st)
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("recovered status %+v, want the published cell done and unleased", st)
	}
	if dd2.Complete(lost) {
		t.Error("backfilled cell was not done — it would have been re-dispatched")
	}
}

// TestDurableLeaseExpiryReplays: an expiry journaled before the crash must
// recover as a pending, re-dispatchable cell with the reclaim counted.
func TestDurableLeaseExpiryReplays(t *testing.T) {
	dir := t.TempDir()
	items := manifestItems(2)

	dd, _ := openDurable(t, dir, nil, nil)
	now := time.Unix(1_700_000_000, 0)
	dd.now = func() time.Time { return now }
	dd.Submit(items, nil)
	dd.Claim("w1", 1)
	now = now.Add(2 * time.Hour) // past the TTL
	if n := dd.Status().Reclaims; n != 1 {
		t.Fatalf("reaped %d leases, want 1", n)
	}
	if err := dd.Persist(); err != nil {
		t.Fatal(err)
	}
	dd.Close()

	dd2, _ := openDurable(t, dir, nil, nil)
	defer dd2.Close()
	st := dd2.Status()
	checkInvariant(t, st)
	if st.Leased != 0 || st.Pending != 2 || st.Reclaims != 1 {
		t.Fatalf("recovered status %+v, want both cells pending with 1 reclaim", st)
	}
	if got := drainKeys(dd2, "w2"); len(got) != 2 {
		t.Fatalf("recovered queue holds %d cells, want both", len(got))
	}
}

// TestDurableCrashAtEveryRecord is the scripted crash sweep: one driver
// runs a fixed submit/claim/complete script against a WAL that dies at
// append N, for every N the script can reach. Whatever was acknowledged
// (Persist returned nil) before the crash must be intact after recovery,
// and the sweep must be finishable without re-simulating any acknowledged
// completion.
func TestDurableCrashAtEveryRecord(t *testing.T) {
	items := manifestItems(4)
	// The full script writes 4 submits + 4 leases + 4 completions = 12
	// records; sweep the crash point across all of them and one beyond.
	for n := uint64(1); n <= 13; n++ {
		dir := t.TempDir()
		inj := fault.New(fault.Rule{Point: "wal.append", N: n, Kind: fault.Crash})
		dd, _, err := OpenDurableDispatcher(dir, time.Hour, inj, nil)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}

		ackedSubmit := false
		acked := make(map[string]bool) // completions whose Persist succeeded
		crashed := false
		dd.Submit(items, nil)
		if dd.Persist() != nil {
			crashed = true
		} else {
			ackedSubmit = true
		}
		for !crashed {
			claimed, st := dd.Claim("w1", 2)
			if dd.Persist() != nil {
				crashed = true
				break
			}
			if len(claimed) == 0 {
				if !st.Complete() {
					t.Fatalf("n=%d: script stalled at %+v", n, st)
				}
				break
			}
			for _, it := range claimed {
				dd.Complete(it.Key)
				if dd.Persist() != nil {
					crashed = true
					break
				}
				acked[it.Key] = true
			}
		}
		dd.Close() // the dying process; errors are expected

		dd2, stats, err := OpenDurableDispatcher(dir, time.Hour, nil, nil)
		if err != nil {
			t.Fatalf("n=%d: recovery: %v", n, err)
		}
		st := dd2.Status()
		checkInvariant(t, st)
		if ackedSubmit && st.Total != len(items) {
			t.Errorf("n=%d: acknowledged manifest recovered %d/%d cells (stats %+v)",
				n, st.Total, len(items), stats)
		}
		for k := range acked {
			if dd2.Complete(k) {
				t.Errorf("n=%d: acknowledged completion %s was lost — the cell would be re-simulated", n, k)
			}
		}
		// The operator's step: resubmit the manifest and finish the sweep.
		dd2.Submit(items, nil)
		resimulated := 0
		for _, it := range items {
			if dd2.Complete(it.Key) && acked[it.Key] {
				resimulated++
			}
		}
		if resimulated != 0 {
			t.Errorf("n=%d: %d acknowledged cells were simulated twice", n, resimulated)
		}
		if fin := dd2.Status(); !fin.Complete() {
			t.Errorf("n=%d: sweep not finishable after recovery: %+v", n, fin)
		}
		dd2.Close()
	}
}

// TestDurableReplayKeepsDispatchOrder: an expired lease sends its cell to
// the back of the pending queue, and the recovered table must hand the
// cells out in the live table's order — the expired cell last, not first.
func TestDurableReplayKeepsDispatchOrder(t *testing.T) {
	dir := t.TempDir()
	items := manifestItems(3)

	dd, _ := openDurable(t, dir, nil, nil)
	now := time.Unix(1_700_000_000, 0)
	dd.now = func() time.Time { return now }
	dd.Submit(items, nil)
	claimed, _ := dd.Claim("w1", 1)
	now = now.Add(2 * time.Hour) // past the TTL
	if n := dd.Status().Reclaims; n != 1 {
		t.Fatalf("reaped %d leases, want 1", n)
	}
	if err := dd.Persist(); err != nil {
		t.Fatal(err)
	}
	dd.Close()

	rec, _ := openDurable(t, dir, nil, nil)
	defer rec.Close()
	rec.now = dd.now
	// The live order is drained from the same state; with its journal
	// closed, the drain cannot reach the WAL just recovered.
	live := drainKeys(dd, "w2")
	want := []string{items[1].Key, items[2].Key, claimed[0].Key}
	if !slices.Equal(live, want) {
		t.Fatalf("live dispatch order %.8q, want %.8q (the expired cell last)", live, want)
	}
	if got := drainKeys(rec, "w2"); !slices.Equal(got, live) {
		t.Fatalf("recovered dispatch order %.8q, live %.8q", got, live)
	}
}

// TestDurablePutOutsideSweepJournalsNothing: a PUT that completes nothing —
// a key no sweep tracks, or a cell already done — appends no record, and
// the table recovered afterwards equals the one before the PUT.
func TestDurablePutOutsideSweepJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	dd, _ := openDurable(t, dir, nil, nil)
	items := manifestItems(3)
	dd.Submit(items, nil)
	dd.Claim("w1", 1)
	ts := httptest.NewServer(NewServer(ServerConfig{Backend: NewMemCache(), Durable: dd}))
	defer ts.Close()
	rc := newChaosClient(t, ts.URL)
	res := RunResult{App: "stub", Cycles: 1}
	if err := rc.CompleteWork(items[0].Key, &res); err != nil {
		t.Fatal(err)
	}
	before := dd.Journal().Appends()
	for _, key := range []string{strings.Repeat("a", 64), items[0].Key} {
		if err := rc.CompleteWork(key, &res); err != nil {
			t.Fatal(err)
		}
		if got := dd.Journal().Appends(); got != before {
			t.Fatalf("PUT of %.8s that completed nothing appended %d record(s)", key, got-before)
		}
	}
	ts.Close()
	reopenEqual(t, dd, dir)
}

// TestDurablePersistCompacts: Persist folds the log into a compaction
// image once DefaultCompactEvery records accumulate, and the table
// recovered from the image equals the live one.
func TestDurablePersistCompacts(t *testing.T) {
	dir := t.TempDir()
	dd, _ := openDurable(t, dir, nil, nil)
	dd.Submit(manifestItems(DefaultCompactEvery+1), nil)
	dd.Claim("w1", 3)
	if got := dd.Journal().Appends(); got < DefaultCompactEvery {
		t.Fatalf("%d appends before Persist, want at least %d", got, DefaultCompactEvery)
	}
	if err := dd.Persist(); err != nil {
		t.Fatal(err)
	}
	if got := dd.Journal().Appends(); got != 0 {
		t.Fatalf("%d appends after Persist, want 0: the log never compacted", got)
	}
	reopenEqual(t, dd, dir)
}

// TestDurableRefusesOlderSnapshot: older builds compacted into a separate
// snapshot file and kept only later records in wal.log; a directory
// holding one fails to open with an error naming the file, and never
// rebuilds the partial table its log alone describes.
func TestDurableRefusesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "snapshot")
	if err := os.WriteFile(old, []byte(`{"records":[],"reclaims":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dd, _, err := OpenDurableDispatcher(dir, time.Hour, nil, nil)
	if err == nil {
		dd.Close()
		t.Fatalf("an older build's snapshot opened as %+v", dd.Status())
	}
	if !strings.Contains(err.Error(), old) {
		t.Errorf("error %q does not name %s", err, old)
	}
}

// FuzzLeaseReplay is the differential test of the journal: a script of
// submits (with and without a cached probe), claims of 1–4 cells, clock
// advances in whole milliseconds followed by a Status (which reaps),
// completions and compactions — some made to fail at wal.compact or
// wal.rename — runs against a journaled table on a manual clock, and the
// table recovered from its WAL must equal the live one (reopenEqual).
// Heartbeats are left out: renewals are not journaled by design.
func FuzzLeaseReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 16, 1, 0, 2, 200}) // the expired cell goes last
	pool := manifestItems(8)
	index := make(map[string]int, len(pool))
	for i, it := range pool {
		index[it.Key] = i
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		// An op-4 pair compacts; arg%3 == 1 makes that compaction fail at
		// wal.compact and 2 at wal.rename. The fresh table never compacts
		// on its own, so the rules can be counted out before it runs.
		var rules []fault.Rule
		var compacts, renames uint64
		for i := 0; i+1 < len(script); i += 2 {
			if script[i]%5 != 4 {
				continue
			}
			compacts++
			switch script[i+1] % 3 {
			case 1:
				rules = append(rules, fault.Rule{Point: "wal.compact", N: compacts, Kind: fault.Fail})
			case 2:
				renames++
				rules = append(rules, fault.Rule{Point: "wal.rename", N: renames, Kind: fault.Fail})
			default:
				renames++
			}
		}
		dir := t.TempDir()
		dd, _, err := OpenDurableDispatcher(dir, 100*time.Millisecond, fault.New(rules...), nil)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1_700_000_000, 0)
		dd.now = func() time.Time { return now }
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 5 {
			case 0:
				// Submit 1–4 pool cells from arg%8; arg>>5 is the set of
				// pool indexes (mod 3) the cached probe reports stored, 0
				// meaning no probe.
				start := int(arg % 8)
				run := pool[start:min(start+1+int(arg>>3)%4, len(pool))]
				var cached func(string) bool
				if mask := arg >> 5; mask != 0 {
					cached = func(key string) bool { return mask>>(index[key]%3)&1 != 0 }
				}
				dd.Submit(run, cached)
			case 1:
				dd.Claim(fmt.Sprintf("w%d", arg%3), 1+int(arg>>2)%4)
			case 2:
				now = now.Add(time.Duration(arg) * time.Millisecond)
				dd.Status()
			case 3:
				dd.Complete(pool[int(arg)%len(pool)].Key)
			case 4:
				if err := dd.Compact(); (err != nil) != (arg%3 != 0) || (err != nil && !errors.Is(err, fault.ErrInjected)) {
					t.Fatalf("compaction with arg %d: %v", arg, err)
				}
			}
		}
		reopenEqual(t, dd, dir)
	})
}
