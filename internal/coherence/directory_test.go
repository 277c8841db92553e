package coherence

import (
	"fmt"
	"strings"
	"testing"

	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
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
	const fills = 100
	for i := 0; i < fills; i++ {
		// A line of the test's own, so the table stays empty.
		e := &dirLine{cur: &Msg{Addr: mem.Addr(64 * i)}}
		r.dir.ensureSpace(e)
		r.eng.Drain(10)
		if !e.hasData {
			t.Fatalf("fill %d: the block was not fetched", i)
		}
	}
	if len(r.dir.resident) != planted+fills {
		t.Fatalf("resident list has %d entries after %d fills below capacity, want them after the %d planted",
			len(r.dir.resident), fills, planted)
	}
	for i := 0; i < planted; i++ {
		if r.dir.resident[i] != mem.Addr(1<<40+64*i) {
			t.Fatalf("planted resident entry %d was moved or dropped", i)
		}
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

// TestDirectoryResetReusesLines: Reset forgets every block — state, data,
// bank residency, the eviction clock — and the lines it cleared are handed
// out again in the order they were first created, before any new line is
// carved, so lines.all (what Quiesced scans) is what a new directory builds.
func TestDirectoryResetReusesLines(t *testing.T) {
	r := newRig(t, 2, false)
	r.dir.cfg.CapacityBlocks = 2
	addrs := []mem.Addr{0x000, 0x040, 0x080}
	for i, a := range addrs {
		r.do(t, i%2, OpStore, a, 4, uint64(i+1), -1) // the third fill evicts
	}
	if r.st.L2Recalls == 0 || r.dir.clock == 0 || len(r.dir.resident) == 0 {
		t.Fatalf("the walk left the bank trivial: recalls=%d clock=%d resident=%#x",
			r.st.L2Recalls, r.dir.clock, r.dir.resident)
	}
	created := append([]*dirLine(nil), r.dir.lines.all...)

	r.dir.Reset()
	if r.dir.lines.n != 0 || len(r.dir.resident) != 0 || r.dir.clock != 0 || len(r.dir.dead) != 0 {
		t.Fatalf("after Reset: %d lines, resident=%#x clock=%d dead=%#x",
			r.dir.lines.n, r.dir.resident, r.dir.clock, r.dir.dead)
	}
	for _, a := range addrs {
		if _, ok := r.dir.LineData(a); ok || r.dir.State(a) != dirInvalid || r.dir.Owner(a) != -1 {
			t.Fatalf("after Reset the directory still knows %#x", a)
		}
	}
	if !r.dir.Quiesced() {
		t.Fatal("a reset directory is not quiesced")
	}
	// New addresses, so reuse cannot be a lookup hit.
	for i, want := range created {
		got := r.dir.line(mem.Addr(0x1000 + 64*i))
		if got != want {
			t.Fatalf("line %d after Reset is not the line created %d-th before it", i, i)
		}
		if got.owner != -1 || got.state != dirInvalid || got.hasData || got.data != nil || got.busy || got.cur != nil {
			t.Fatalf("reused line %d is not cleared: %+v", i, *got)
		}
	}
	if n := len(r.dir.lines.all); n != len(created) {
		t.Fatalf("reusing %d lines grew lines.all to %d", len(created), n)
	}
	if extra := r.dir.line(0x2000); len(r.dir.lines.all) != len(created)+1 || r.dir.lines.all[len(created)] != extra {
		t.Fatal("the first line past the reused ones was not carved and appended")
	}
}

// panicText runs f and returns the message it panicked with ("" if it
// returned).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestNewDirectoryNilProtoPanics: the directory resolves no protocol name
// itself (machine.New does), so a config without a table must fail at
// construction with a message that names the field, not at the first
// request with a nil dereference.
func TestNewDirectoryNilProtoPanics(t *testing.T) {
	msg := panicText(func() {
		NewDirectory(0, 5, &sim.Engine{}, nil, DirConfig{Latency: 6, L2Latency: 10, BlockSize: 64}, nil, nil, nil)
	})
	if !strings.Contains(msg, "DirConfig.Proto") {
		t.Fatalf("NewDirectory with a nil Proto panicked with %q, want a message naming DirConfig.Proto", msg)
	}
}
