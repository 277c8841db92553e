package machine

import (
	"bytes"
	"fmt"
	"slices"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/mem"
)

// Quiesced reports whether no core operation or directory transaction is in
// flight (the state in which invariants are meaningful).
func (m *Machine) Quiesced() bool {
	for _, l := range m.l1s {
		if l.Busy() {
			return false
		}
	}
	for _, d := range m.dirs {
		if !d.Quiesced() {
			return false
		}
	}
	return true
}

// CheckInvariants validates the protocol's coherence invariants across all
// caches and directories: every block some L1 holds a tag for passes
// coherence.AuditBlock, the audit the model checker holds its schedules to.
// The machine must be quiesced. With strictData set (baseline runs with no
// scribbles), it additionally checks that every Shared copy holds the same
// bytes as the L2 home — a property Ghostwriter deliberately relaxes for GS
// blocks.
func (m *Machine) CheckInvariants(strictData bool) error {
	if !m.Quiesced() {
		return fmt.Errorf("machine: invariant check while not quiesced")
	}
	var blocks []mem.Addr
	for _, l := range m.l1s {
		arr := l.Array()
		arr.ForEach(func(si int, b *cache.Block) { blocks = append(blocks, arr.AddrOf(si, b)) })
	}
	slices.Sort(blocks)
	for _, base := range slices.Compact(blocks) {
		d := m.dirFor(base)
		if err := coherence.AuditBlock(m.l1s, d, base); err != nil {
			return err
		}
		l2, ok := d.Peek(base)
		if !strictData || !ok {
			continue
		}
		for id, l := range m.l1s {
			if b := l.Array().Lookup(base); b != nil && b.State == cache.Shared && !bytes.Equal(b.Data, l2) {
				return fmt.Errorf("block %#x: shared copy in l1 %d diverges from L2", base, id)
			}
		}
	}
	return nil
}
