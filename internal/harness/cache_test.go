package harness

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// TestValidKey pins the accepted key shape: exactly 64 lowercase hex.
func TestValidKey(t *testing.T) {
	good := Spec{App: "stub", Scale: 1, Threads: 1}.Key()
	if !ValidKey(good) {
		t.Fatalf("Spec.Key() %q rejected by ValidKey", good)
	}
	bad := []string{
		"", "a", "ab", // too short (the "ab" case used to panic path's key[:2])
		strings.Repeat("a", 63), strings.Repeat("a", 65),
		strings.Repeat("A", 64),         // uppercase hex
		strings.Repeat("g", 64),         // non-hex
		"../" + strings.Repeat("a", 61), // path escape
		strings.Repeat("a", 32) + "\x00" + strings.Repeat("a", 31),
	}
	for _, k := range bad {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true", k)
		}
	}
}

// TestCacheMalformedKeysAreMisses: a malformed key — including ones that
// used to panic the key[:2] path slice — is a clean miss on Get and an
// error on Put, never a panic and never a file outside the cache dir.
func TestCacheMalformedKeysAreMisses(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a", "deadbeef", strings.Repeat("Z", 64)} {
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%q) reported a hit", k)
		}
		if err := c.Put(k, &RunResult{}); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", k)
		}
	}
	if s := c.Stats(); s.Puts != 0 || s.Hits != 0 {
		t.Errorf("malformed keys moved the hit/put counters: %+v", s)
	}
}

// TestCachePutEntriesWorldReadable: entries must not inherit CreateTemp's
// 0600 mode, or a cache directory shared between users (or served by
// gwcached running as another user) hands out EACCES instead of hits.
func TestCachePutEntriesWorldReadable(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 1, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Errorf("cache entry mode = %o, want 644", got)
	}
}

// TestCacheCorruptEntrySingleMiss: one corrupt read is one miss, the entry
// is dropped, and a subsequent Put/Get cycle works normally.
func TestCacheCorruptEntrySingleMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 2, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Errorf("corrupt read counted %d misses, want 1", s.Misses)
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not dropped")
	}
	if err := c.Put(key, &RunResult{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(key); !ok || r.Cycles != 9 {
		t.Errorf("repaired entry = %+v/%v", r, ok)
	}
}

// TestCacheRepairedEntryNotDeleted guards the delete/rename race fix:
// concurrent writers re-Put an entry while readers Get it starting from a
// corrupt state. The invariant is that a Get never serves data no Put
// wrote and the repaired entry survives the corrupt-entry cleanup (the old
// code's blind os.Remove could delete an entry a Put had just renamed into
// place). Run under -race in CI, this also exercises the re-read path.
func TestCacheRepairedEntryNotDeleted(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 3, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var lost atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = c.Put(key, &RunResult{Cycles: 5})
			if r, ok := c.Get(key); ok && r.Cycles != 5 {
				lost.Store(true)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if r, ok := c.Get(key); ok && r.Cycles != 5 {
			lost.Store(true)
			break
		}
	}
	<-done
	if lost.Load() {
		t.Fatal("a Get returned a result that no Put wrote")
	}
	// After the dust settles the repaired entry must survive.
	if err := c.Put(key, &RunResult{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(key); !ok || r.Cycles != 5 {
		t.Errorf("repaired entry = %+v/%v, want a hit with cycles 5", r, ok)
	}
}
