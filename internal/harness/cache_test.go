package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ghostwriter/internal/wal"
)

// TestValidKey pins the accepted key shape: exactly 64 lowercase hex.
func TestValidKey(t *testing.T) {
	good := Spec{App: "stub", Scale: 1, Threads: 1}.Key()
	if !ValidKey(good) {
		t.Fatalf("Spec.Key() %q rejected by ValidKey", good)
	}
	bad := []string{
		"", "a", "ab", // too short
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

// TestCacheMalformedKeysAreMisses: a malformed key is a clean miss on Get
// and an error on Put, never a panic and never a record in a pack.
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
	if packs, _ := filepath.Glob(filepath.Join(c.Dir(), "*"+packExt)); len(packs) != 0 {
		t.Errorf("malformed keys created packs %v", packs)
	}
}

// onePack returns the path of the only pack in dir.
func onePack(t *testing.T, dir string) string {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "*"+packExt))
	if err != nil || len(packs) != 1 {
		t.Fatalf("packs in %s: %v (%v), want exactly one", dir, packs, err)
	}
	return packs[0]
}

// flipCycles finds the record for key in the pack at path and rewrites its
// encoded Cycles from from to to, leaving the frame's header as it was. The
// result still decodes, so only the frame's CRC can tell it from a record
// a Put wrote.
func flipCycles(t *testing.T, path, key string, from, to uint64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, []byte(key))
	if at < wal.HeaderSize {
		t.Fatalf("no record for %.8s… in %s", key, path)
	}
	payload := b[at : at+int(binary.LittleEndian.Uint32(b[at-wal.HeaderSize:]))]
	r, err := readRecord(key, b[at-wal.HeaderSize:at+len(payload)])
	if err != nil || r.Cycles != from {
		t.Fatalf("no Cycles %d in %s: record %+v (%v)", from, path, r, err)
	}
	r.Cycles = to
	flipped := encodeRecord(key, r)[wal.HeaderSize:]
	if len(flipped) != len(payload) {
		t.Fatalf("Cycles %d encodes in another length than %d", to, from)
	}
	copy(payload, flipped)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCachePutEntriesWorldReadable: the pack must not keep CreateTemp's
// 0600 mode, or a cache directory shared between users (or served by
// gwcached running as another user) hands out EACCES instead of hits. A
// Cache that only reads creates no pack.
func TestCachePutEntriesWorldReadable(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 1, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(onePack(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Errorf("pack mode = %o, want 644", got)
	}
	warm, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := warm.Get(key); !ok {
		t.Fatal("warm Cache missed the entry")
	}
	onePack(t, dir)
}

// TestCacheCorruptEntrySingleMiss: one corrupt read is one miss, the pack
// is left as it was, and the re-Put appends a fresh copy that hits — on
// the same Cache and on one opened afterwards. A Put of a key already
// indexed appends nothing.
func TestCacheCorruptEntrySingleMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 2, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	path := onePack(t, dir)
	flipCycles(t, path, key, 9, 8)
	corrupt, _ := os.ReadFile(path)
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("corrupt read counted %+v, want exactly 1 miss", s)
	}
	if err := c.Put(key, &RunResult{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.HasPrefix(after, corrupt) || len(after) != 2*len(corrupt) {
		t.Errorf("re-Put left a %d-byte pack, want the %d corrupt bytes untouched and one fresh copy after them", len(after), len(corrupt))
	}
	if r, ok := c.Get(key); !ok || r.Cycles != 9 {
		t.Errorf("repaired entry = %+v/%v", r, ok)
	}
	if err := c.Put(key, &RunResult{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); len(again) != len(after) {
		t.Errorf("a Put of an indexed key grew the pack from %d to %d bytes", len(after), len(again))
	}
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := reopened.Get(key); !ok || r.Cycles != 9 {
		t.Errorf("reopened cache: repaired entry = %+v/%v", r, ok)
	}
}

// TestCacheRepairedEntryNotDeleted: concurrent writers re-Put an entry
// while readers Get it, starting from a record whose bytes were changed
// into another valid JSON result. A Get never serves data no Put wrote,
// and the repaired entry survives. Run under -race in CI, this also
// exercises the index's drop-and-re-Put path.
func TestCacheRepairedEntryNotDeleted(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 3, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	flipCycles(t, onePack(t, dir), key, 5, 7)
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

// TestCacheFlippedByteIsAMiss: a record whose bytes changed after its Put
// is a miss, never the changed result — whether the change happened
// before the index was built or after.
func TestCacheFlippedByteIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{App: "stub", Scale: 4, Threads: 1}.Key()
	other := Spec{App: "stub", Scale: 5, Threads: 1}.Key()
	if err := c.Put(key, &RunResult{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(other, &RunResult{Cycles: 6}); err != nil {
		t.Fatal(err)
	}
	flipCycles(t, onePack(t, dir), key, 5, 7)
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, cache := range map[string]*Cache{"indexed before the flip": c, "indexed after the flip": reopened} {
		if r, ok := cache.Get(key); ok {
			t.Errorf("%s: flipped record hit with cycles %d", name, r.Cycles)
		}
		if r, ok := cache.Get(other); !ok || r.Cycles != 6 {
			t.Errorf("%s: the record after the flipped one = %+v/%v, want a hit with cycles 6", name, r, ok)
		}
	}
}

// TestCacheTornTailLeftInPlace: a pack whose last frame is only partly
// written serves the frames before it, misses the torn one, and is never
// truncated — its writer may still be at work, and once the frame is whole
// the same Cache hits it.
func TestCacheTornTailLeftInPlace(t *testing.T) {
	dir := t.TempDir()
	keys := []string{
		Spec{App: "stub", Scale: 1, Threads: 2}.Key(),
		Spec{App: "stub", Scale: 2, Threads: 2}.Key(),
		Spec{App: "stub", Scale: 3, Threads: 2}.Key(),
	}
	var whole []byte
	for i, k := range keys[:2] {
		whole = append(whole, encodeRecord(k, &RunResult{Cycles: uint64(i + 1)})...)
	}
	last := encodeRecord(keys[2], &RunResult{Cycles: 3})
	path := filepath.Join(dir, "writer"+packExt)
	torn := append(bytes.Clone(whole), last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[:2] {
		if r, ok := c.Get(k); !ok || r.Cycles != uint64(i+1) {
			t.Errorf("entry %d before the torn tail = %+v/%v", i, r, ok)
		}
	}
	if _, ok := c.Get(keys[2]); ok {
		t.Error("torn entry reported a hit")
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, torn) {
		t.Fatalf("pack is %d bytes after reads, want the %d torn bytes untouched", len(b), len(torn))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(last[len(last)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if r, ok := c.Get(keys[2]); !ok || r.Cycles != 3 {
		t.Errorf("entry whose frame was finished = %+v/%v, want a hit with cycles 3", r, ok)
	}
}

// TestCacheSeesOtherInstancePuts: a Cache opened before another instance
// wrote anything still hits on its puts — the first through the directory
// listing that finds the new pack, the next through the pack's grown tail.
func TestCacheSeesOtherInstancePuts(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		key := Spec{App: "stub", Scale: i, Threads: 3}.Key()
		if _, ok := b.Get(key); ok {
			t.Fatalf("put %d: hit before A's put", i)
		}
		if err := a.Put(key, &RunResult{Cycles: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if r, ok := b.Get(key); !ok || r.Cycles != uint64(i) {
			t.Errorf("put %d: B read %+v/%v, want A's result", i, r, ok)
		}
	}
}

// TestCacheReadsOnlyWholeRecordsOfThisLayout: a frame whose CRC holds is
// still a miss when its payload is not exactly one record in this build's
// layout — a body cut short, a byte after it, a value too large for its
// field, another stamp, or JSON where the tag goes.
func TestCacheReadsOnlyWholeRecordsOfThisLayout(t *testing.T) {
	key := Spec{App: "stub", Scale: 7, Threads: 1}.Key()
	good := encodeRecord(key, &RunResult{App: "stub", Cycles: 7, ErrorPct: 0.5})[wal.HeaderSize:]
	if r, err := readRecord(key, wal.AppendFrame(nil, good)); err != nil || r.Cycles != 7 {
		t.Fatalf("readRecord(a record Put writes) = %+v, %v", r, err)
	}
	// Metric, a uint8, follows App ("stub") and an empty Suite.
	metric := headLen + 1 + len("stub") + 1
	js, err := json.Marshal(RunResult{App: "stub", Cycles: 7})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"short body":     good[:len(good)-1],
		"trailing byte":  append(bytes.Clone(good), 0),
		"uint8 overflow": append(append(bytes.Clone(good[:metric]), 0xac, 0x02), good[metric+1:]...),
		"other stamp":    append(append(bytes.Clone(good[:keyLen+1]), ^good[keyLen+1]), good[keyLen+2:]...),
		"JSON-era":       append([]byte(key), js...),
	}
	for name, payload := range bad {
		if r, err := readRecord(key, wal.AppendFrame(nil, payload)); err == nil {
			t.Errorf("%s: readRecord = %+v, want an error", name, r)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "bad"+packExt), wal.AppendFrame(nil, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := c.Get(key); ok {
			t.Errorf("%s: Get hit %+v", name, r)
		}
		closePacks(c)
	}
}

// TestCachePassesOverForeignPack: a pack has one writer, so one layout.
// Once a scan meets a whole, CRC-clean frame in another layout it indexes
// nothing more of that pack, not even a record of this layout behind it;
// a frame whose CRC fails is damage, not another layout, and is skipped.
func TestCachePassesOverForeignPack(t *testing.T) {
	key := Spec{App: "stub", Scale: 7, Threads: 1}.Key()
	js, err := json.Marshal(RunResult{App: "stub", Cycles: 7})
	if err != nil {
		t.Fatal(err)
	}
	foreign := wal.AppendFrame(nil, append([]byte(Spec{App: "old"}.Key()), js...))
	crcBad := bytes.Clone(foreign)
	crcBad[wal.HeaderSize] ^= 1
	record := encodeRecord(key, &RunResult{App: "stub", Cycles: 7})
	for name, tc := range map[string]struct {
		lead []byte
		hit  bool
	}{"JSON-era": {foreign, false}, "CRC-bad": {crcBad, true}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "old"+packExt), append(bytes.Clone(tc.lead), record...), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok != tc.hit {
			t.Errorf("%s frame ahead of a record: Get hit = %v, want %v", name, ok, tc.hit)
		}
		closePacks(c)
	}
}

// fillNumbers sets every integer, float and string reachable in v to a
// simulation-sized value, each leaf its own, so a sample result encodes
// like a real one and a decoder that swaps two leaves reads wrong values.
func fillNumbers(v reflect.Value) {
	leaf := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		leaf++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Int, reflect.Int64, reflect.Int32:
			v.SetInt(int64(4844 + leaf))
		case reflect.Uint, reflect.Uint64, reflect.Uint32, reflect.Uint8:
			x := uint64(10485 + leaf)
			if v.OverflowUint(x) {
				x %= 1 << v.Type().Bits()
			}
			v.SetUint(x)
		case reflect.Float64:
			v.SetFloat(1329.25 + float64(leaf))
		case reflect.String:
			v.SetString(fmt.Sprint("leaf-", leaf))
		}
	}
	fill(v)
}

// TestCacheRoundTripsEveryLeaf: every stored leaf of a RunResult comes
// back from a Get as it was put, on the same Cache and on a reopened one;
// Window is not stored, so a hit reports it zero.
func TestCacheRoundTripsEveryLeaf(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var r RunResult
	fillNumbers(reflect.ValueOf(&r).Elem())
	if r.Window == (RunResult{}).Window || r.Metric == 0 || r.Suite == "" {
		t.Fatalf("fillNumbers left leaves zero: %+v", r)
	}
	key := Spec{App: "stub", Scale: 6, Threads: 1}.Key()
	if err := c.Put(key, &r); err != nil {
		t.Fatal(err)
	}
	want := r
	want.Window = RunResult{}.Window
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, cache := range map[string]*Cache{"same": c, "reopened": reopened} {
		if got, ok := cache.Get(key); !ok || !reflect.DeepEqual(*got, want) {
			t.Errorf("%s cache: Get = %+v/%v, want %+v", name, got, ok, want)
		}
	}
}

// TestCacheAllocations pins what one Get and one Put allocate for a
// RunResult the size of a real one (about 1 KB as JSON). A hit allocates
// the read buffer, the result and its two strings. The sweep and fleet_wal benchmark
// workloads gate allocs_per_memop at 3 %, so an index or a refresh that
// starts allocating per call must fail here first.
func TestCacheAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &RunResult{App: "linear_regression", Suite: "phoenix", DDist: 8, Threads: 24, Cycles: 29315, ErrorPct: 0.25}
	fillNumbers(reflect.ValueOf(&r.Stats).Elem())
	fillNumbers(reflect.ValueOf(&r.Energy).Elem())
	if js, _ := json.Marshal(r); len(js) < 900 || len(js) > 1200 {
		t.Fatalf("sample result is %d bytes of JSON, want about 1 KB", len(js))
	}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = Spec{App: "stub", Scale: i + 1, Threads: 4}.Key()
	}
	next := 0
	put := testing.AllocsPerRun(100, func() {
		if err := c.Put(keys[next], r); err != nil {
			t.Fatal(err)
		}
		next++
	})
	get := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(keys[0]); !ok {
			t.Fatal("miss on a stored key")
		}
	})
	absent := Spec{App: "absent"}.Key()
	miss := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(absent); ok {
			t.Fatal("hit on an absent key")
		}
	})
	// This miss lists the directory again, its mtime being within
	// racyListing of now; later misses allocate only the stats.
	for _, pin := range []struct {
		name      string
		got, want float64
	}{{"Put", put, 4}, {"Get hit", get, 4}, {"Get miss", miss, 9}} {
		if pin.got > pin.want {
			t.Errorf("%s allocates %.0f objects, pinned at %.0f", pin.name, pin.got, pin.want)
		}
	}
}

// closePacks closes the files c holds open. A Cache keeps its packs open
// for the life of the process; the fuzzer opens thousands of them.
func closePacks(c *Cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.packs {
		p.f.Close()
	}
}

// FuzzCacheOpen: whatever bytes a pack holds, OpenCache must not panic;
// every Get hit must equal a result that a whole frame in the file holds
// under that key, as readRecord reads it; and a following Put/Get must
// round-trip, on the same Cache and on a reopened one. Seeds under
// testdata/fuzz/FuzzCacheOpen hold a clean binary pack (seed-clean-binary,
// stamped with the layout of its day), and JSON-era packs: a clean one, a
// torn header, a bad CRC and a length running past EOF. No JSON frame
// decodes, so those yield no hit.
func FuzzCacheOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz"+packExt), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closePacks(c) })
		// The key of every whole frame at any offset, whatever its CRC,
		// and the results of those whose CRC holds: a superset of what
		// the cache may serve.
		keys := make(map[string]bool)
		framed := make(map[string][]RunResult)
		for i := range raw {
			_, n, err := wal.ParseFrame(raw[i:])
			if err == wal.ErrShortFrame || n <= wal.HeaderSize+keyLen {
				continue
			}
			key := string(raw[i+wal.HeaderSize : i+wal.HeaderSize+keyLen])
			keys[key] = true
			if err != nil {
				continue
			}
			if r, err := readRecord(key, raw[i:i+n]); err == nil {
				framed[key] = append(framed[key], *r)
			}
		}
		written := func(key string, r *RunResult) bool {
			for i := range framed[key] {
				if reflect.DeepEqual(framed[key][i], *r) {
					return true
				}
			}
			return false
		}
		for key := range keys {
			if r, ok := c.Get(key); ok && !written(key, r) {
				t.Fatalf("Get(%.8s…) returned a result (cycles %d) that no whole frame in the pack holds", key, r.Cycles)
			}
		}
		key := Spec{App: "fuzz", Scale: 1, Threads: 1}.Key()
		want := &RunResult{App: "fuzz", Cycles: uint64(len(raw)) + 1}
		if err := c.Put(key, want); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closePacks(reopened) })
		for name, cache := range map[string]*Cache{"same": c, "reopened": reopened} {
			got, ok := cache.Get(key)
			if !ok || !(reflect.DeepEqual(got, want) || written(key, got)) {
				t.Fatalf("%s cache: Get after Put = %+v/%v, want %+v", name, got, ok, want)
			}
		}
	})
}
