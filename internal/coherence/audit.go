package coherence

import (
	"bytes"
	"fmt"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// AuditBlock checks the structural coherence invariants of one block at
// quiescence, across every L1 (l1s is indexed by L1 id) and the block's home
// directory d. It is the one statement of them: the model checker holds
// every schedule to it and Machine.CheckInvariants every simulated run.
//
//   - No transient state survives quiescence.
//   - Single writer: at most one L1 holds the block in M or E.
//   - Directory agreement: the sharer list covers every S/GS copy and names
//     no L1 without one (a phantom sharer would invalidate a bystander
//     later, or stall an UPGRADE's ack collection forever); the recorded
//     owner is exactly the M/E holder; and the directory's state record
//     matches its own owner/sharer bookkeeping.
//   - GI invisibility: a GI holder is neither listed nor recorded as owner.
//     Both halves are instances of directory agreement — a listed GI holder
//     is a phantom sharer, an owning one is an owner no L1 backs.
//   - Clean exclusivity: an Exclusive copy equals the L2 line it was granted
//     from. E is never written (a store moves the block to M), so a
//     divergent E copy is dirty data a silent PUTE eviction would lose.
//
// An owner beside read copies needs no check of its own: the directory
// records one state per block, so once the owner is agreed no sharer is
// listed, and an unlisted S/GS copy has already failed coverage.
//
// The passing path allocates nothing; the checker calls this once per
// address per schedule.
func AuditBlock(l1s []*L1, d *Directory, a mem.Addr) error {
	listed, dirOwner := d.Sharers(a), d.Owner(a)
	owner := -1
	for c, l1 := range l1s {
		held := proto.Absent
		b := l1.arr.Lookup(a)
		if b != nil {
			held = b.State
			if !held.Stable() {
				return fmt.Errorf("block %#x: l1 %d holds it in transient state %v at quiescence", a, c, held)
			}
		}
		switch held {
		case cache.Modified, cache.Exclusive:
			if owner >= 0 {
				return fmt.Errorf("block %#x has two writable copies (l1 %d and l1 %d)", a, owner, c)
			}
			owner = c
			if held == cache.Exclusive {
				if line, ok := d.LineData(a); ok && !bytes.Equal(b.Data, line) {
					return fmt.Errorf("block %#x: l1 %d's Exclusive copy diverges from the L2 line (dirty data in a clean state)", a, c)
				}
			}
		case cache.Shared, cache.GS:
			if !listed.Has(c) {
				return fmt.Errorf("block %#x: l1 %d holds it in %v but is not on the sharer list (%v)",
					a, c, held, listed.IDs())
			}
			continue
		}
		if listed.Has(c) {
			return fmt.Errorf("block %#x: directory lists l1 %d as sharer but it holds %s",
				a, c, proto.L1StateName(held))
		}
	}
	switch d.State(a) {
	case proto.DirShared:
		if listed.None() {
			return fmt.Errorf("block %#x: directory state DS with an empty sharer list", a)
		}
	case proto.DirOwned:
		if dirOwner < 0 {
			return fmt.Errorf("block %#x: directory state DM without a recorded owner", a)
		}
	}
	if owner != dirOwner {
		return fmt.Errorf("block %#x: M/E copy in l1 %d, directory owner %d (-1: none)", a, owner, dirOwner)
	}
	return nil
}
