package coherence

import (
	"testing"

	"ghostwriter/internal/mem"
)

// TestEnsureSpaceBelowCapacityLeavesResidentAlone: with no evicted line to
// drop and room in the bank, a fill must not look at the resident list at
// all. The list is planted with addresses that have no directory line —
// any per-entry walk would drop them (or fault on them) — and must come
// through a hundred fills untouched.
func TestEnsureSpaceBelowCapacityLeavesResidentAlone(t *testing.T) {
	r := newRig(t, 1, false)
	const planted = 100_000
	r.dir.cfg.CapacityBlocks = 2 * planted
	for i := 0; i < planted; i++ {
		r.dir.resident = append(r.dir.resident, mem.Addr(1<<40+64*i))
	}
	for i := 0; i < 100; i++ {
		ran := false
		r.dir.ensureSpace(mem.Addr(64*i), func() { ran = true })
		if !ran {
			t.Fatalf("fill %d: continuation did not run", i)
		}
	}
	if len(r.dir.resident) != planted {
		t.Fatalf("resident list has %d entries after fills below capacity, want the %d planted", len(r.dir.resident), planted)
	}
	if r.dir.lines.n != 0 {
		t.Fatalf("ensureSpace created or probed %d directory lines", r.dir.lines.n)
	}
}

// TestEnsureSpaceCompactsEvictedLines walks one core over three times the
// bank's capacity: every fill past the fourth evicts a line, and the
// resident list must track exactly the lines holding data, in fill order,
// carrying an evicted address no further than the next fill.
func TestEnsureSpaceCompactsEvictedLines(t *testing.T) {
	r := newRig(t, 1, false)
	const capacity, blocks = 4, 12
	r.dir.cfg.CapacityBlocks = capacity
	for i := 0; i < blocks; i++ {
		r.do(t, 0, OpLoad, mem.Addr(64*i), 4, 0, -1)
		if n := len(r.dir.resident) - len(r.dir.dead); n > capacity {
			t.Fatalf("after fill %d: %d lines resident, capacity %d", i, n, capacity)
		}
	}
	if got := r.st.L2Recalls; got != blocks-capacity {
		t.Fatalf("%d evictions, want %d", got, blocks-capacity)
	}
	r.dir.compactResident()
	if len(r.dir.resident) != capacity {
		t.Fatalf("resident = %#x, want %d lines", r.dir.resident, capacity)
	}
	for i, a := range r.dir.resident {
		// The walk fills ascending addresses, so fill order is address order.
		if i > 0 && a <= r.dir.resident[i-1] {
			t.Fatalf("resident = %#x is not in fill order", r.dir.resident)
		}
		if _, ok := r.dir.LineData(a); !ok {
			t.Fatalf("resident line %#x holds no data", a)
		}
	}
	held := 0
	for _, e := range r.dir.lines.all {
		if e.hasData {
			held++
		}
	}
	if held != capacity {
		t.Fatalf("%d lines hold data, %d are listed resident", held, capacity)
	}
}
