package trace

import (
	"math/rand"

	"ghostwriter/internal/coherence"
	"ghostwriter/internal/mem"
)

// PatternConfig parametrizes the synthetic sharing-pattern generators.
type PatternConfig struct {
	Threads int
	// Rounds is the number of per-thread access rounds.
	Rounds int
	// Base is the shared block's base address (block-aligned).
	Base mem.Addr
	// DDist programs the scribe for scribble variants (< 0: plain stores).
	DDist int
	// Gap is the compute spacing between rounds.
	Gap uint32
	// Scribble emits approximate stores instead of conventional ones.
	Scribble bool
}

// scribeOp opens every thread: it programs the scribe with DDist clamped to
// [-1, 127] as the machine clamps it, so a d past int8 does not wrap.
func (c PatternConfig) scribeOp() Op {
	return Op{DDist: int8(max(min(c.DDist, 127), -1))}
}

// storeKind picks the configured store flavour.
func (c PatternConfig) storeKind() coherence.OpKind {
	if c.Scribble {
		return coherence.OpScribble
	}
	return coherence.OpStore
}

// Migratory generates the Fig. 4 pattern: every thread repeatedly loads and
// then stores its own word of one shared cache block, so the block migrates
// between caches on every round.
func Migratory(c PatternConfig) *Trace {
	t := &Trace{Threads: make([][]Op, c.Threads)}
	for id := 0; id < c.Threads; id++ {
		ops := []Op{c.scribeOp()}
		addr := c.Base + mem.Addr(4*id)
		for r := 0; r < c.Rounds; r++ {
			ops = append(ops,
				Op{Kind: coherence.OpLoad, Addr: addr, Width: 4, Gap: c.Gap, DDist: NoDistChange},
				Op{Kind: c.storeKind(), Addr: addr, Width: 4, Value: uint64(r), DDist: NoDistChange},
			)
		}
		t.Threads[id] = ops
	}
	return t
}

// ProducerConsumer generates the Fig. 5 pattern: thread 0 stores a value
// each round, every other thread loads it.
func ProducerConsumer(c PatternConfig) *Trace {
	t := &Trace{Threads: make([][]Op, c.Threads)}
	for id := 0; id < c.Threads; id++ {
		ops := []Op{c.scribeOp()}
		for r := 0; r < c.Rounds; r++ {
			if id == 0 {
				ops = append(ops, Op{
					Kind: c.storeKind(), Addr: c.Base, Width: 4,
					Value: uint64(r), Gap: c.Gap, DDist: NoDistChange,
				})
			} else {
				ops = append(ops, Op{
					Kind: coherence.OpLoad, Addr: c.Base, Width: 4,
					Gap: c.Gap, DDist: NoDistChange,
				})
			}
		}
		t.Threads[id] = ops
	}
	return t
}

// FalseSharing generates the classic false-sharing antipattern: threads in
// groups of 16 load and store their own disjoint 4-byte word, but the 16
// words of one group pack into a single 64 B cache block, so the block
// ping-pongs between caches although no data is actually shared. Under
// Ghostwriter, scribble variants let similar updates hide in GS instead of
// invalidating the other 15 copies.
func FalseSharing(c PatternConfig) *Trace {
	const slots = 16 // 4-byte words per 64 B block
	t := &Trace{Threads: make([][]Op, c.Threads)}
	for id := 0; id < c.Threads; id++ {
		ops := []Op{c.scribeOp()}
		addr := c.Base + mem.Addr(64*(id/slots)+4*(id%slots))
		for r := 0; r < c.Rounds; r++ {
			ops = append(ops,
				Op{Kind: coherence.OpLoad, Addr: addr, Width: 4, Gap: c.Gap, DDist: NoDistChange},
				Op{Kind: c.storeKind(), Addr: addr, Width: 4, Value: uint64(r), DDist: NoDistChange},
			)
		}
		t.Threads[id] = ops
	}
	return t
}

// PathologicalSharing generates the worst case for a write-invalidate
// protocol: every thread loads and stores the same word of the same block
// every round, so each store invalidates every other cache and each load
// misses. Values step by one per round across threads, keeping neighboring
// writes d-similar — the regime where Ghostwriter's approximate states
// absorb nearly all of the traffic.
func PathologicalSharing(c PatternConfig) *Trace {
	t := &Trace{Threads: make([][]Op, c.Threads)}
	for id := 0; id < c.Threads; id++ {
		ops := []Op{c.scribeOp()}
		for r := 0; r < c.Rounds; r++ {
			ops = append(ops,
				Op{Kind: coherence.OpLoad, Addr: c.Base, Width: 4, Gap: c.Gap, DDist: NoDistChange},
				Op{Kind: c.storeKind(), Addr: c.Base, Width: 4,
					Value: uint64(r*c.Threads + id), DDist: NoDistChange},
			)
		}
		t.Threads[id] = ops
	}
	return t
}

// Random generates seeded uniform traffic over span bytes: a protocol
// fuzzing workload.
func Random(c PatternConfig, seed int64, spanBytes int) *Trace {
	t := &Trace{Threads: make([][]Op, c.Threads)}
	for id := 0; id < c.Threads; id++ {
		r := rand.New(rand.NewSource(seed + int64(id)))
		ops := []Op{c.scribeOp()}
		for k := 0; k < c.Rounds; k++ {
			addr := c.Base + mem.Addr(4*(r.Intn(spanBytes/4)))
			switch r.Intn(3) {
			case 0:
				ops = append(ops, Op{Kind: coherence.OpLoad, Addr: addr, Width: 4, DDist: NoDistChange})
			case 1:
				ops = append(ops, Op{
					Kind: coherence.OpStore, Addr: addr, Width: 4,
					Value: uint64(r.Intn(1 << 12)), DDist: NoDistChange,
				})
			default:
				ops = append(ops, Op{
					Kind: c.storeKind(), Addr: addr, Width: 4,
					Value: uint64(r.Intn(1 << 12)), DDist: NoDistChange,
				})
			}
		}
		t.Threads[id] = ops
	}
	return t
}
