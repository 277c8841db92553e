// Package cache implements the set-associative cache arrays used for both
// L1s and L2 banks: tag RAM, per-block data, tree pseudo-LRU replacement
// (Table 1 of the paper), and storage for the coherence state of each block,
// including Ghostwriter's approximate states.
package cache

import (
	"fmt"
	"math/bits"

	"ghostwriter/internal/mem"
)

// State is the coherence state of one cache block. The stable states follow
// Fig. 3 of the paper: MESI plus Ghostwriter's GS and GI. Transient states
// are used by the L1 controller while a transaction is outstanding.
type State uint8

// Stable states.
const (
	// Invalid: the tag is present but the block holds stale, incoherent
	// data. The paper is explicit that I retains the tag (and this model
	// also retains the stale data, which is what the scribe comparator
	// inspects for GI entry). A block with no tag at all is simply absent
	// from the cache (Block.Valid == false).
	Invalid State = iota
	Shared
	Exclusive
	Modified
	// GS: locally modified copy of a previously Shared block, hidden from
	// the global view; still on the directory sharer list.
	GS
	// GI: locally modified copy of a previously Invalid block, unknown to
	// the directory; reverts to Invalid on the periodic timeout.
	GI

	// Transient states (L1 controller).
	ISD // GETS issued, awaiting data
	IMD // GETX issued, awaiting data
	SMA // UPGRADE issued, awaiting ack (or data if the upgrade raced)
	EVA // eviction PUT issued, awaiting ack; still serves forwards
)

// String returns the conventional protocol-table name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case GS:
		return "GS"
	case GI:
		return "GI"
	case ISD:
		return "IS_D"
	case IMD:
		return "IM_D"
	case SMA:
		return "SM_A"
	case EVA:
		return "EV_A"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Stable reports whether s is a stable (non-transient) state.
func (s State) Stable() bool { return s <= GI }

// ReadableLocally reports whether a load may hit on a block in this state.
// GS and GI grant local read permission per §3.2 of the paper.
func (s State) ReadableLocally() bool {
	switch s {
	case Shared, Exclusive, Modified, GS, GI:
		return true
	}
	return false
}

// Block is one cache frame: a tag, a coherence state, and a copy of the
// block's data. Approximate execution is functionally modelled, so each L1
// genuinely holds (possibly divergent) data. The fields are ordered widest
// first: 40 bytes a frame, 256 L1s × 512 frames on the largest machine.
type Block struct {
	Tag uint64
	// Data is nil until Install first claims the frame; from then on the
	// frame keeps its buffer, through eviction and Reset.
	Data []byte
	// Hidden counts the writes absorbed during the current GS/GI residency
	// (the drift monitor of §3.5's error-bounding extension; unused when
	// the bound is disabled).
	Hidden uint32
	State  State
	Valid  bool // tag valid; false means the frame is empty
}

// ReadWord reads a little-endian value of widthBytes at byte offset off.
func (b *Block) ReadWord(off, widthBytes int) uint64 {
	return mem.DecodeUint(b.Data[off : off+widthBytes])
}

// WriteWord writes a little-endian value of widthBytes at byte offset off.
func (b *Block) WriteWord(off, widthBytes int, v uint64) {
	mem.EncodeUint(b.Data[off:off+widthBytes], v)
}

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity (power of two)
	BlockSize int // bytes per block (power of two)
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockSize) }

// Cache is a set-associative array with tree pseudo-LRU replacement. All
// frames live in one flat slice (set si spans blocks[si*Ways:(si+1)*Ways]).
// Block data follows use: a frame gets its buffer the first time Install
// claims it, carved from a slab that grows a chunk at a time, so a cache
// costs host memory in proportion to the frames its run touches, not to
// its capacity.
type Cache struct {
	cfg    Config
	blocks []Block
	plru   []uint64 // one PLRU tree (bit field) per set
	// slab is the uncarved tail of the newest data chunk and carved the
	// number of frames given a buffer so far, which sizes the next chunk.
	slab      []byte
	carved    int
	setShift  uint // log2(BlockSize): where the set index starts
	tagShift  uint // log2(BlockSize × sets): where the tag starts
	setMask   uint64
	blockMask uint64
}

// New builds a cache. Ways and BlockSize must be powers of two and the
// capacity must divide evenly into sets.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Ways&(cfg.Ways-1) != 0 {
		panic(fmt.Sprintf("cache: ways %d not a power of two", cfg.Ways))
	}
	if cfg.BlockSize <= 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic(fmt.Sprintf("cache: block size %d not a power of two", cfg.BlockSize))
	}
	nsets := cfg.Sets()
	if nsets <= 0 || nsets*cfg.Ways*cfg.BlockSize != cfg.SizeBytes {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets of %dB blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockSize))
	}
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	c := &Cache{
		cfg:       cfg,
		blocks:    make([]Block, nsets*cfg.Ways),
		plru:      make([]uint64, nsets),
		setMask:   uint64(nsets - 1),
		blockMask: uint64(cfg.BlockSize - 1),
	}
	c.setShift = uint(bits.TrailingZeros(uint(cfg.BlockSize)))
	c.tagShift = c.setShift + uint(bits.TrailingZeros(uint(nsets)))
	return c
}

// firstChunk is the number of frames in a cache's first data chunk. Each
// later chunk holds as many frames as all before it plus firstChunk — 8,
// 16, 32, … — and the last only what is left, so a fully touched 512-frame
// L1 makes seven allocations and one that fills a few dozen frames two or
// three.
const firstChunk = 8

// carve returns a zeroed block buffer for a frame that has none.
func (c *Cache) carve() []byte {
	bs := c.cfg.BlockSize
	if len(c.slab) == 0 {
		c.slab = make([]byte, min(c.carved+firstChunk, len(c.blocks)-c.carved)*bs)
	}
	buf := c.slab[:bs:bs]
	c.slab = c.slab[bs:]
	c.carved++
	return buf
}

// Reset returns the cache to its just-constructed state, keeping its
// storage: every frame empty, every buffer a frame was given zeroed and
// still that frame's (a second run over the same frames carves nothing),
// every PLRU tree cleared.
func (c *Cache) Reset() {
	for i := range c.blocks {
		b := &c.blocks[i]
		clear(b.Data)
		*b = Block{Data: b.Data}
	}
	clear(c.plru)
}

// set returns the frames of set si.
func (c *Cache) set(si int) []Block {
	return c.blocks[si*c.cfg.Ways : (si+1)*c.cfg.Ways]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockBase returns the block-aligned base of an address.
func (c *Cache) BlockBase(a mem.Addr) mem.Addr { return a &^ mem.Addr(c.blockMask) }

// Offset returns the byte offset of an address within its block.
func (c *Cache) Offset(a mem.Addr) int { return int(uint64(a) & c.blockMask) }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(a mem.Addr) int {
	return int((uint64(a) >> c.setShift) & c.setMask)
}

// tag returns the tag bits of an address.
func (c *Cache) tag(a mem.Addr) uint64 { return uint64(a) >> c.tagShift }

// Lookup returns the frame holding the block containing a, if the tag is
// present (in any state, including Invalid). It does not update PLRU.
func (c *Cache) Lookup(a mem.Addr) *Block {
	set := c.set(c.SetIndex(a))
	tag := c.tag(a)
	for w := range set {
		if set[w].Valid && set[w].Tag == tag {
			return &set[w]
		}
	}
	return nil
}

// Touch marks the frame holding address a as most-recently used.
func (c *Cache) Touch(a mem.Addr) {
	si := c.SetIndex(a)
	set := c.set(si)
	tag := c.tag(a)
	for w := range set {
		if set[w].Valid && set[w].Tag == tag {
			c.touchWay(si, w)
			return
		}
	}
}

// touchWay updates the PLRU tree so that way w is protected.
func (c *Cache) touchWay(si, w int) {
	ways := c.cfg.Ways
	node := 1
	for span := ways; span > 1; span >>= 1 {
		half := span >> 1
		bit := uint64(1) << uint(node)
		if w%span < half {
			// Went left: point the tree right (away from this way).
			c.plru[si] |= bit
			node = node * 2
		} else {
			c.plru[si] &^= bit
			node = node*2 + 1
		}
	}
}

// VictimWay selects the frame to evict from the set containing address a:
// an empty frame if one exists, otherwise an Invalid-state frame (its data
// is already incoherent), otherwise the PLRU way.
func (c *Cache) VictimWay(a mem.Addr) *Block {
	si := c.SetIndex(a)
	set := c.set(si)
	for w := range set {
		if !set[w].Valid {
			return &set[w]
		}
	}
	for w := range set {
		if set[w].State == Invalid {
			return &set[w]
		}
	}
	// Walk the PLRU tree toward the least-recently-used way.
	node := 1
	w := 0
	for span := c.cfg.Ways; span > 1; span >>= 1 {
		half := span >> 1
		bit := uint64(1) << uint(node)
		if c.plru[si]&bit != 0 {
			// Tree points right.
			w += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
	}
	return &set[w]
}

// Install claims frame b (which must belong to the set of address a) for
// the block containing a, setting its tag and state and copying data (which
// may be nil to zero-fill). A frame claimed for the first time gets its
// buffer here. It marks the frame most-recently used.
func (c *Cache) Install(b *Block, a mem.Addr, st State, data []byte) {
	b.Valid = true
	b.Tag = c.tag(a)
	b.State = st
	if b.Data == nil {
		b.Data = c.carve()
	}
	if data != nil {
		copy(b.Data, data)
	} else {
		clear(b.Data)
	}
	c.Touch(a)
}

// ForEach calls fn for every valid frame, in deterministic set/way order.
func (c *Cache) ForEach(fn func(setIndex int, b *Block)) {
	for i := range c.blocks {
		if c.blocks[i].Valid {
			fn(i/c.cfg.Ways, &c.blocks[i])
		}
	}
}

// AddrOf reconstructs the block base address of a frame in set si.
func (c *Cache) AddrOf(si int, b *Block) mem.Addr {
	return mem.Addr(b.Tag<<c.tagShift | uint64(si)<<c.setShift)
}
