package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"ghostwriter/internal/mem"
)

// l1Config mirrors Table 1: 32 kB, 2-way, 64 B blocks.
func l1Config() Config { return Config{SizeBytes: 32 << 10, Ways: 2, BlockSize: 64} }

func TestGeometry(t *testing.T) {
	c := New(l1Config())
	if c.Config().Sets() != 256 {
		t.Fatalf("sets = %d, want 256", c.Config().Sets())
	}
	a := mem.Addr(0x12345)
	if c.BlockBase(a) != 0x12340 {
		t.Errorf("BlockBase = %#x", c.BlockBase(a))
	}
	if c.Offset(a) != 5 {
		t.Errorf("Offset = %d", c.Offset(a))
	}
	// Addresses one block apart map to adjacent sets.
	if c.SetIndex(0) == c.SetIndex(64) {
		t.Error("adjacent blocks should map to different sets")
	}
	// Addresses sets*blockSize apart collide.
	if c.SetIndex(0) != c.SetIndex(256*64) {
		t.Error("stride of sets*blockSize should collide")
	}
}

func TestInstallLookup(t *testing.T) {
	c := New(l1Config())
	a := mem.Addr(0x4000)
	data := make([]byte, 64)
	data[5] = 0xAB
	b := c.VictimWay(a)
	c.Install(b, a, Shared, data)
	got := c.Lookup(a)
	if got == nil || got.State != Shared || got.Data[5] != 0xAB {
		t.Fatal("installed block not found intact")
	}
	if c.Lookup(a+64) != nil {
		t.Fatal("lookup of absent block should be nil")
	}
	// Same block, different offset: still a hit.
	if c.Lookup(a+63) != got {
		t.Fatal("intra-block offset changed lookup result")
	}
}

func TestInvalidTagPresent(t *testing.T) {
	c := New(l1Config())
	a := mem.Addr(0x8000)
	b := c.VictimWay(a)
	c.Install(b, a, Modified, nil)
	b.State = Invalid // coherence invalidation retains the tag
	if got := c.Lookup(a); got == nil || got.State != Invalid {
		t.Fatal("invalidated block must remain visible with its tag")
	}
	b.Valid = false // the frame loses its tag
	if c.Lookup(a) != nil {
		t.Fatal("a frame without a valid tag must be absent")
	}
}

func TestVictimPrefersEmptyThenInvalid(t *testing.T) {
	c := New(l1Config())
	a := mem.Addr(0)
	b1 := c.VictimWay(a)
	c.Install(b1, a, Modified, nil)
	// Second way is empty: victim must be the empty frame, not b1.
	b2 := c.VictimWay(a)
	if b2 == b1 {
		t.Fatal("victim chose an occupied frame while an empty one existed")
	}
	conflict := a + 256*64 // same set
	c.Install(b2, conflict, Shared, nil)
	// Now full. Invalidate b1: it becomes the preferred victim.
	b1.State = Invalid
	if v := c.VictimWay(a); v != b1 {
		t.Fatal("victim should prefer the Invalid-state frame")
	}
}

func TestPLRUVictim(t *testing.T) {
	c := New(l1Config())
	a := mem.Addr(0)
	conflict := a + 256*64
	c.Install(c.VictimWay(a), a, Shared, nil)
	c.Install(c.VictimWay(conflict), conflict, Shared, nil)
	// Touch a: conflict becomes LRU.
	c.Touch(a)
	v := c.VictimWay(a)
	if !v.Valid || v.Tag != c.Lookup(conflict).Tag {
		t.Fatal("PLRU victim should be the untouched way")
	}
	// Touch conflict: a becomes LRU.
	c.Touch(conflict)
	v = c.VictimWay(a)
	if !v.Valid || v.Tag != c.Lookup(a).Tag {
		t.Fatal("PLRU victim should follow recency")
	}
}

func TestBlockWords(t *testing.T) {
	b := Block{Data: make([]byte, 64)}
	b.WriteWord(8, 4, 0xDEADBEEF)
	if b.ReadWord(8, 4) != 0xDEADBEEF {
		t.Fatal("word round trip failed")
	}
	b.WriteWord(16, 8, 0x0102030405060708)
	if b.ReadWord(16, 8) != 0x0102030405060708 {
		t.Fatal("dword round trip failed")
	}
	if b.ReadWord(11, 1) != 0xDE {
		t.Fatal("little-endian byte extraction failed")
	}
}

func TestStatePredicates(t *testing.T) {
	for _, s := range []State{Shared, Exclusive, Modified, GS, GI} {
		if !s.ReadableLocally() {
			t.Errorf("%v should be readable", s)
		}
	}
	if Invalid.ReadableLocally() || ISD.ReadableLocally() {
		t.Error("I/transient must not be readable")
	}
	if !Modified.Stable() || SMA.Stable() {
		t.Error("Stable predicate wrong")
	}
	if GS.String() != "GS" || IMD.String() != "IM_D" {
		t.Error("String labels wrong")
	}
}

// Property: AddrOf inverts the set/tag decomposition for installed blocks.
func TestAddrOfInverse(t *testing.T) {
	c := New(l1Config())
	f := func(raw uint32) bool {
		a := c.BlockBase(mem.Addr(raw))
		b := c.VictimWay(a)
		c.Install(b, a, Shared, nil)
		got := mem.Addr(0)
		found := false
		c.ForEach(func(si int, fb *Block) {
			if fb == b {
				got = c.AddrOf(si, fb)
				found = true
			}
		})
		b.Valid = false
		return found && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: distinct block addresses mapping to the same set get distinct
// tags (no aliasing).
func TestNoTagAliasing(t *testing.T) {
	c := New(l1Config())
	f := func(x, y uint32) bool {
		a := c.BlockBase(mem.Addr(x))
		b := c.BlockBase(mem.Addr(y))
		if a == b || c.SetIndex(a) != c.SetIndex(b) {
			return true
		}
		return c.tag(a) != c.tag(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func Test4WayPLRUCoversAllWays(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, Ways: 4, BlockSize: 64})
	// One set, four ways. Install 4 conflicting blocks, then repeatedly pick
	// a victim, install, and touch; the cache must keep functioning and each
	// frame must be reachable as a victim.
	seen := map[*Block]bool{}
	for i := 0; i < 32; i++ {
		a := mem.Addr(i * 64 * 1) // every block maps to set 0 (1 set)
		v := c.VictimWay(a)
		seen[v] = true
		c.Install(v, a, Shared, nil)
	}
	if len(seen) != 4 {
		t.Fatalf("PLRU used %d distinct frames, want 4", len(seen))
	}
}

// TestBlockSize pins the frame layout: 40 bytes, fields widest first. A
// field added in the wrong place pads each of a 256-node machine's 131 072
// frames back out.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 40 {
		t.Fatalf("Block is %d bytes, want 40", got)
	}
}

// dirty fills a block buffer with a non-zero pattern.
func dirty(b *Block) {
	for i := range b.Data {
		b.Data[i] = byte(i) | 0x80
	}
}

func zeroed(b *Block) bool {
	for _, x := range b.Data {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestFramesGetDataOnFirstInstall: a frame has no buffer until Install
// claims it and a zero-filled one of its own afterwards; a reused frame is
// zeroed; an Invalid frame keeps its (stale) bytes for the scribe
// comparator.
func TestFramesGetDataOnFirstInstall(t *testing.T) {
	c := New(l1Config())
	a := mem.Addr(0x4000)
	b := c.VictimWay(a)
	if b.Data != nil {
		t.Fatal("a never-used frame already holds a buffer")
	}
	c.Install(b, a, Shared, nil)
	if len(b.Data) != 64 || cap(b.Data) != 64 || !zeroed(b) {
		t.Fatalf("first install: len %d cap %d, zeroed %v; want one zero-filled 64-byte block", len(b.Data), cap(b.Data), zeroed(b))
	}

	dirty(b)
	b.State = Invalid
	if got := c.Lookup(a); got != b || got.Data[5] != 5|0x80 {
		t.Fatal("an Invalid frame must keep its stale data")
	}

	buf := &b.Data[0]
	b.Valid = false       // the frame loses its tag
	other := a + 256*64*2 // same set, different tag
	if v := c.VictimWay(other); v != b {
		t.Fatal("the untagged frame should be the victim")
	}
	c.Install(b, other, Modified, nil)
	if &b.Data[0] != buf {
		t.Error("a reinstalled frame should keep its buffer")
	}
	if !zeroed(b) {
		t.Error("a reinstalled frame must be zero-filled")
	}

	// Neighbouring frames never share bytes.
	n := c.VictimWay(a)
	c.Install(n, a, Shared, nil)
	dirty(n)
	if !zeroed(b) {
		t.Error("writing one frame's data changed another's")
	}
}

// TestChunkedSlabBoundsAllocations: New allocates the cache, its frames and
// its PLRU trees and no data; touching every frame of a Table 1 L1 then
// costs seven data allocations (chunks of 8, 16, … frames, the last cut to
// what is left), touching a few dozen costs three.
func TestChunkedSlabBoundsAllocations(t *testing.T) {
	for _, tc := range []struct{ frames, chunks int }{{0, 0}, {40, 3}, {512, 7}} {
		var c *Cache
		got := testing.AllocsPerRun(1, func() {
			c = New(l1Config())
			for i := 0; i < tc.frames; i++ {
				a := mem.Addr(i * 64)
				c.Install(c.VictimWay(a), a, Shared, nil)
			}
		})
		if want := float64(3 + tc.chunks); got > want {
			t.Errorf("building a cache and filling %d frames allocates %v objects, want at most 3 + %d data chunks", tc.frames, got, tc.chunks)
		}
		n := 0
		c.ForEach(func(int, *Block) { n++ })
		if n != tc.frames {
			t.Errorf("%d frames valid, want %d", n, tc.frames)
		}
	}
}

// TestResetKeepsBuffers: Reset empties the cache, zeroes every buffer a
// frame was given and leaves it with that frame, so a second pass over the
// same addresses allocates nothing (the model checker's rewind contract).
func TestResetKeepsBuffers(t *testing.T) {
	c := New(l1Config())
	pass := func() {
		for i := 0; i < 40; i++ {
			a := mem.Addr(i * 64)
			b := c.VictimWay(a)
			c.Install(b, a, Modified, nil)
			dirty(b)
		}
	}
	pass()
	b := c.Lookup(0)
	buf := &b.Data[0]
	c.Reset()
	if c.Lookup(0) != nil {
		t.Fatal("Reset left a block resident")
	}
	if b.Valid || b.State != Invalid || b.Hidden != 0 || b.Tag != 0 {
		t.Errorf("Reset left frame metadata behind: %+v", *b)
	}
	if &b.Data[0] != buf || !zeroed(b) {
		t.Error("Reset must keep a frame's buffer and zero it")
	}
	if got := testing.AllocsPerRun(3, func() { pass(); c.Reset() }); got != 0 {
		t.Errorf("a pass over already-carved frames allocates %v objects, want 0", got)
	}
}
