package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ghostwriter/internal/wal"
)

// DefaultCacheDir is where gwsweep and the benchmarks keep cached cells.
const DefaultCacheDir = ".gwcache"

const (
	// packExt names the cache's pack files.
	packExt = ".pack"
	// keyLen is the length of a key, which opens every record's payload.
	keyLen = 64
	// recordTag follows the key in every record this format writes. A
	// JSON-era record has '{' there.
	recordTag = 1
	// headLen is the length of what precedes a record's fields: the key,
	// the tag and the 8-byte layout stamp.
	headLen = keyLen + 1 + 8
	// scanChunk is how much of a pack one read takes while indexing.
	scanChunk = 1 << 20
	// racyListing is how close to the directory's mtime a listing must
	// start to count as racy: a pack created in the same mtime tick would
	// leave the mtime unchanged, so the next miss lists again. It covers
	// file systems with one-second timestamps.
	racyListing = time.Second
)

// Cache is the content-addressed on-disk result store. Its entries live in
// append-only pack files directly under its directory:
//
//	<dir>/<unique>.pack
//
// Each record is one write-ahead-log frame (package wal), [u32 length]
// [u32 CRC32-C][payload]. The payload is the 64-byte key, recordTag, the
// 8-byte layout stamp, and then the RunResult's stored fields in
// declaration order: integers as varints, a float64 as its 8
// little-endian IEEE bits, a string length-prefixed (see resultLayout).
// The key is Spec.Key() — a SHA-256 over the code version, the workload
// spec, and the full machine configuration. There is no invalidation
// logic: a cell that would simulate differently necessarily has a
// different key (codeVersion covers code changes), so stale entries are
// simply never read again. A pack whose records' tag or stamp is not this
// build's — one a build with other RunResult fields wrote, or a JSON-era
// one — is passed over, so its cells resimulate once and their fresh
// copies serve from then on. Deleting the directory is always safe.
//
// Each Cache appends to one pack of its own, created on its first Put, so
// a warm replay creates no file, and no pack is ever written by two
// processes or rewritten by anyone. OpenCache indexes every pack; a miss
// indexes what other writers appended since (one fstat per pack) and
// lists the directory again only when its mtime moved. A frame that is not
// whole yet is left for a later scan and never truncated: its writer may
// still be at work. A frame that fails its CRC or key check is a miss and
// leaves the index, so the caller's re-Put appends a fresh copy.
//
// A Cache is safe for concurrent use by the Runner's workers. Put does not
// fsync: the cache is a memo, and a lost entry is resimulated.
type Cache struct {
	dir string

	mu     sync.RWMutex
	index  map[cacheKey]entry
	packs  map[string]*pack // by file name; own included
	own    *pack            // the pack this Cache appends to; nil before the first Put
	dirMod time.Time        // the directory's mtime when it was last listed
	racy   bool             // that listing may have missed a pack; list again

	hits, misses, puts atomic.Uint64
}

// cacheKey is a key's 32 bytes, which the index holds in place of its 64
// hex characters.
type cacheKey [keyLen / 2]byte

// parseKey decodes key if it has the shape Spec.Key produces.
func parseKey[T string | []byte](key T) (k cacheKey, ok bool) {
	if len(key) != keyLen {
		return k, false
	}
	for i := range k {
		hi, ok1 := nibble(key[2*i])
		lo, ok2 := nibble(key[2*i+1])
		if !ok1 || !ok2 {
			return k, false
		}
		k[i] = hi<<4 | lo
	}
	return k, true
}

// nibble decodes one lowercase hex digit.
func nibble(b byte) (byte, bool) {
	switch {
	case '0' <= b && b <= '9':
		return b - '0', true
	case 'a' <= b && b <= 'f':
		return b - 'a' + 10, true
	}
	return 0, false
}

// pack is one pack file and how far the index covers it.
type pack struct {
	f    *os.File
	next int64 // offset of the first frame not yet indexed
	seen int64 // the file's size at the last scan
}

// entry locates one record: the frame of length n at off in p.
type entry struct {
	p   *pack
	off int64
	n   int
}

// OpenCache opens (creating if needed) the cache rooted at dir and indexes
// its packs; an empty dir selects DefaultCacheDir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: open cache: %w", err)
	}
	c := &Cache{dir: dir, index: make(map[cacheKey]entry), packs: make(map[string]*pack)}
	c.refreshLocked()
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// ValidKey reports whether key has the shape Spec.Key produces: exactly 64
// lowercase hex characters. Every cache layer — disk, remote client, and
// the gwcached server — rejects other shapes at the boundary, so a key
// carrying path separators never reaches a URL path or a pack record.
func ValidKey(key string) bool {
	_, ok := parseKey(key)
	return ok
}

// Get returns the cached result for key, if present and readable.
func (c *Cache) Get(key string) (*RunResult, bool) {
	k, ok := parseKey(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.RLock()
	e, ok := c.index[k]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		c.refreshLocked()
		e, ok = c.index[k]
		c.mu.Unlock()
	}
	if ok {
		b := make([]byte, e.n)
		if _, err := e.p.f.ReadAt(b, e.off); err == nil {
			if r, err := readRecord(key, b); err == nil {
				c.hits.Add(1)
				return r, true
			}
		}
		// The record changed on disk after it was indexed. Drop it so the
		// caller's re-Put appends a fresh copy.
		c.mu.Lock()
		if c.index[k] == e {
			delete(c.index, k)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores r under key by appending it to this Cache's pack. A key that
// is already indexed appends nothing.
func (c *Cache) Put(key string, r *RunResult) error {
	k, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("harness: cache put: malformed key %q", key)
	}
	frame := encodeRecord(key, r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[k]; !ok {
		if err := c.appendLocked(k, frame); err != nil {
			return fmt.Errorf("harness: cache put: %w", err)
		}
	}
	c.puts.Add(1)
	return nil
}

// appendLocked writes frame at the end of the own pack, creating the pack
// on first use, and indexes it. A failed write retires the pack, so the
// next Put starts another and no byte is written twice.
func (c *Cache) appendLocked(k cacheKey, frame []byte) error {
	if c.own == nil {
		f, err := os.CreateTemp(c.dir, "*"+packExt)
		if err != nil {
			return err
		}
		// CreateTemp opens at 0600; a shared cache directory (NFS mount,
		// the gwcached data dir) needs packs other users can read.
		if err := f.Chmod(0o644); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		c.own = &pack{f: f}
		c.packs[filepath.Base(f.Name())] = c.own
	}
	p := c.own
	if _, err := p.f.WriteAt(frame, p.next); err != nil {
		c.own = nil
		return err
	}
	c.index[k] = entry{p: p, off: p.next, n: len(frame)}
	p.next += int64(len(frame))
	p.seen = p.next
	return nil
}

// refreshLocked brings the index up to date with the directory: it lists
// the directory when its mtime moved (or the last listing was racy) and
// indexes whatever the other packs gained since the last scan.
func (c *Cache) refreshLocked() {
	if fi, err := os.Stat(c.dir); err == nil && (c.racy || !fi.ModTime().Equal(c.dirMod)) {
		c.dirMod = fi.ModTime()
		c.racy = time.Since(c.dirMod) < racyListing
		c.listLocked()
	}
	for _, p := range c.packs {
		if p != c.own {
			c.scanLocked(p)
		}
	}
}

// listLocked opens the packs in the directory that the Cache does not know.
func (c *Cache) listLocked() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, packExt) || c.packs[name] != nil {
			continue
		}
		if f, err := os.Open(filepath.Join(c.dir, name)); err == nil {
			c.packs[name] = &pack{f: f}
		}
	}
}

// scanLocked indexes the frames appended to p since its last scan. It stops
// at a frame that is not whole yet — one another process is still writing,
// or one a crash tore — and resumes there once the file grows. A whole
// frame that fails its CRC or holds no valid key is skipped; a length
// prefix out of range ends what can be framed. The first CRC-clean frame
// in another layout passes over everything the pack holds so far.
func (c *Cache) scanLocked(p *pack) {
	fi, err := p.f.Stat()
	if err != nil || fi.Size() <= p.seen {
		return
	}
	p.seen = fi.Size()
	buf := make([]byte, min(p.seen-p.next, scanChunk))
	for p.next < p.seen {
		b := buf[:min(int64(len(buf)), p.seen-p.next)]
		if _, err := p.f.ReadAt(b, p.next); err != nil {
			return
		}
		off := 0
		for {
			payload, n, err := wal.ParseFrame(b[off:])
			if err == wal.ErrShortFrame {
				if off == 0 {
					// The frame at p.next is larger than the buffer, or
					// runs past what has been written so far.
					if p.next+int64(n) > p.seen {
						return
					}
					buf = make([]byte, n)
				}
				break
			}
			if n == 0 {
				p.next += int64(off)
				return
			}
			if err == nil && !thisLayout(payload) {
				// A pack has one writer, so one layout: the rest of it
				// is foreign too.
				p.next = p.seen
				return
			}
			if err == nil {
				if k, ok := parseKey(payload[:keyLen]); ok {
					if _, dup := c.index[k]; !dup {
						c.index[k] = entry{p: p, off: p.next + int64(off), n: n}
					}
				}
			}
			off += n
		}
		p.next += int64(off)
	}
}

// resultLayout is how a record stores a RunResult, and resultStamp is the
// hash of its field names, kinds and array lengths. Both are worked out once,
// by reflection, so a build that adds, drops, renames or retypes a stored
// field writes a stamp no other build indexes.
var resultLayout, resultStamp = newLayout(reflect.TypeFor[RunResult]())

// codecKind is how a layout stores one value.
type codecKind uint8

const (
	storeStruct codecKind = iota
	storeArray
	storeInt    // binary.PutVarint
	storeUint   // binary.PutUvarint
	storeFloat  // 8 little-endian IEEE bytes
	storeString // varint length, then the bytes
)

// layout is the stored shape of one value of RunResult: a leaf, an array
// of elem, or a struct of fields.
type layout struct {
	kind   codecKind
	elem   *layout
	fields []storedField
}

// storedField is a struct field a record stores: the field's index in its
// struct, and its layout.
type storedField struct {
	index int
	*layout
}

// newLayout derives t's layout and its stamp. A struct stores its exported
// fields except those tagged json:"-" (RunResult.Window), the same fields
// JSON carries.
func newLayout(t reflect.Type) (*layout, uint64) {
	var desc strings.Builder
	l := describe(t, &desc)
	h := fnv.New64a()
	h.Write([]byte(desc.String()))
	return l, h.Sum64()
}

// describe builds t's layout and writes what its stamp covers to desc. A
// kind no layout stores is a bug in a RunResult field's type.
func describe(t reflect.Type, desc *strings.Builder) *layout {
	l := &layout{kind: storeStruct}
	switch k := t.Kind(); {
	case k == reflect.Struct:
		desc.WriteString("{")
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			desc.WriteString(f.Name + " ")
			l.fields = append(l.fields, storedField{i, describe(f.Type, desc)})
			desc.WriteString(";")
		}
		desc.WriteString("}")
		return l
	case k == reflect.Array:
		fmt.Fprintf(desc, "[%d]", t.Len())
		l.kind, l.elem = storeArray, describe(t.Elem(), desc)
		return l
	case reflect.Int <= k && k <= reflect.Int64:
		l.kind = storeInt
	case reflect.Uint <= k && k <= reflect.Uint64:
		l.kind = storeUint
	case k == reflect.Float64:
		l.kind = storeFloat
	case k == reflect.String:
		l.kind = storeString
	default:
		panic("harness: RunResult holds a " + t.String() + ", which the cache record cannot store")
	}
	desc.WriteString(t.Kind().String())
	return l
}

// size is how many bytes put writes for v.
func (l *layout) size(v reflect.Value) int {
	var varint [binary.MaxVarintLen64]byte
	switch l.kind {
	case storeStruct:
		n := 0
		for _, f := range l.fields {
			n += f.size(v.Field(f.index))
		}
		return n
	case storeArray:
		n := 0
		for i := range v.Len() {
			n += l.elem.size(v.Index(i))
		}
		return n
	case storeInt:
		return binary.PutVarint(varint[:], v.Int())
	case storeUint:
		return binary.PutUvarint(varint[:], v.Uint())
	case storeFloat:
		return 8
	default:
		return binary.PutUvarint(varint[:], uint64(v.Len())) + v.Len()
	}
}

// put encodes v at the start of b, which holds at least size(v) bytes,
// and returns how many bytes it wrote.
func (l *layout) put(b []byte, v reflect.Value) int {
	switch l.kind {
	case storeStruct:
		n := 0
		for _, f := range l.fields {
			n += f.put(b[n:], v.Field(f.index))
		}
		return n
	case storeArray:
		n := 0
		for i := range v.Len() {
			n += l.elem.put(b[n:], v.Index(i))
		}
		return n
	case storeInt:
		return binary.PutVarint(b, v.Int())
	case storeUint:
		return binary.PutUvarint(b, v.Uint())
	case storeFloat:
		binary.LittleEndian.PutUint64(b, math.Float64bits(v.Float()))
		return 8
	default:
		n := binary.PutUvarint(b, uint64(v.Len()))
		return n + copy(b[n:], v.String())
	}
}

// get decodes the start of b into v and returns the bytes after it. It
// fails on a value that runs past b or does not fit v's type.
func (l *layout) get(b []byte, v reflect.Value) ([]byte, bool) {
	ok := true
	switch l.kind {
	case storeStruct:
		for _, f := range l.fields {
			if b, ok = f.get(b, v.Field(f.index)); !ok {
				return nil, false
			}
		}
		return b, true
	case storeArray:
		for i := range v.Len() {
			if b, ok = l.elem.get(b, v.Index(i)); !ok {
				return nil, false
			}
		}
		return b, true
	case storeInt:
		x, n := binary.Varint(b)
		if n <= 0 || v.OverflowInt(x) {
			return nil, false
		}
		v.SetInt(x)
		return b[n:], true
	case storeUint:
		x, n := binary.Uvarint(b)
		if n <= 0 || v.OverflowUint(x) {
			return nil, false
		}
		v.SetUint(x)
		return b[n:], true
	case storeFloat:
		if len(b) < 8 {
			return nil, false
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], true
	default:
		x, n := binary.Uvarint(b)
		if n <= 0 || x > uint64(len(b)-n) {
			return nil, false
		}
		v.SetString(string(b[n : n+int(x)]))
		return b[n+int(x):], true
	}
}

// encodeRecord returns the frame that stores r under key, built in one
// buffer of its final size.
func encodeRecord(key string, r *RunResult) []byte {
	v := reflect.ValueOf(r).Elem()
	frame := make([]byte, wal.HeaderSize+headLen+resultLayout.size(v))
	payload := frame[wal.HeaderSize:]
	copy(payload, key)
	payload[keyLen] = recordTag
	binary.LittleEndian.PutUint64(payload[keyLen+1:], resultStamp)
	resultLayout.put(payload[headLen:], v)
	// The payload already sits where AppendFrame would copy it, so framing
	// writes the header in place and needs no second buffer.
	return wal.AppendFrame(frame[:0], payload)
}

// thisLayout reports whether payload is a record in this build's layout.
func thisLayout(payload []byte) bool {
	return len(payload) >= headLen && payload[keyLen] == recordTag &&
		binary.LittleEndian.Uint64(payload[keyLen+1:]) == resultStamp
}

// readRecord decodes b, which must be exactly one whole, CRC-clean frame
// holding a record of key in this build's layout: a frame cut short, a
// byte after it, another key, another layout and a body that does not
// decode all fail. It is the one way a RunResult is read: from a pack, a
// PUT body and a GET answer.
func readRecord(key string, b []byte) (*RunResult, error) {
	payload, n, err := wal.ParseFrame(b)
	switch {
	case err != nil:
		return nil, err
	case n != len(b) || !thisLayout(payload) || string(payload[:keyLen]) != key:
		return nil, errors.New("not one record of its key in this build's layout")
	}
	r := new(RunResult)
	if rest, ok := resultLayout.get(payload[headLen:], reflect.ValueOf(r).Elem()); !ok || len(rest) != 0 {
		return nil, errors.New("record body does not decode")
	}
	return r, nil
}

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Hits, Misses, Puts uint64
}

// Stats returns the cache's activity counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Puts: c.puts.Load()}
}
