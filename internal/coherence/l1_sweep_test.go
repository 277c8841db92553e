package coherence_test

import (
	"fmt"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// sweepL1 builds an idle ghostwriter L1 whose GI sweep can be driven
// directly, without a directory (the sweep never sends messages).
func sweepL1(t *testing.T, giTimeout sim.Cycle, adaptive bool) (*coherence.L1, *stats.Stats) {
	t.Helper()
	return newSweepL1(proto.MustLookup("ghostwriter"), giTimeout, adaptive, nil)
}

func newSweepL1(p *proto.Protocol, giTimeout sim.Cycle, adaptive bool,
	onMissing func(cache.State, proto.Event)) (*coherence.L1, *stats.Stats) {
	eng := &sim.Engine{}
	st := &stats.Stats{}
	meter := &energy.Meter{}
	net := noc.New(eng, noc.DefaultConfig(), meter, st)
	l := coherence.NewL1(0, eng, net, coherence.L1Config{
		Cache:             cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64},
		GITimeout:         giTimeout,
		Proto:             p,
		AdaptiveGITimeout: adaptive,
		OnMissing:         onMissing,
	}, func(mem.Addr) noc.NodeID { return 5 }, meter, st)
	l.UsePool(&coherence.MsgPool{})
	l.StartSweep()
	return l, st
}

// TestGISweepAdaptiveHalvesToFloor pins the lower clamp: busy sweeps (>= 2
// discarded residencies) halve the period until exactly GITimeout/8, and a
// further busy sweep at the floor leaves it unchanged.
func TestGISweepAdaptiveHalvesToFloor(t *testing.T) {
	l, st := sweepL1(t, 1024, true)
	want := []sim.Cycle{512, 256, 128, 128, 128}
	for i, w := range want {
		l.PutGI(2)
		l.SweepGI()
		if got := l.CurrentGITimeout(); got != w {
			t.Fatalf("sweep %d: timeout %d, want %d", i, got, w)
		}
	}
	if st.GITimeouts != uint64(2*len(want)) {
		t.Fatalf("GITimeouts %d, want %d", st.GITimeouts, 2*len(want))
	}
}

// TestGISweepAdaptiveDoublesToCeiling pins the upper clamp: empty sweeps
// double the period until exactly 4*GITimeout, then hold.
func TestGISweepAdaptiveDoublesToCeiling(t *testing.T) {
	l, _ := sweepL1(t, 1024, true)
	want := []sim.Cycle{2048, 4096, 4096, 4096}
	for i, w := range want {
		l.SweepGI()
		if got := l.CurrentGITimeout(); got != w {
			t.Fatalf("sweep %d: timeout %d, want %d", i, got, w)
		}
	}
}

// TestGISweepAdaptiveSingleResidencyHolds pins the middle of the adaptation
// band: a sweep that discards exactly one residency neither halves (that
// needs >= 2) nor doubles (that needs 0).
func TestGISweepAdaptiveSingleResidencyHolds(t *testing.T) {
	l, st := sweepL1(t, 1024, true)
	l.PutGI(1)
	l.SweepGI()
	if got := l.CurrentGITimeout(); got != 1024 {
		t.Fatalf("timeout %d, want unchanged 1024", got)
	}
	if st.GITimeouts != 1 {
		t.Fatalf("GITimeouts %d, want 1", st.GITimeouts)
	}
}

// TestGISweepAdaptiveFloorOne pins the 1-cycle safety clamp: with
// GITimeout 1 the floor GITimeout/8 truncates to 0, so a busy sweep halves
// 1 to 0 and the final clamp restores 1 — the period can never reach 0.
func TestGISweepAdaptiveFloorOne(t *testing.T) {
	l, _ := sweepL1(t, 1, true)
	for i := 0; i < 3; i++ {
		l.PutGI(2)
		l.SweepGI()
		if got := l.CurrentGITimeout(); got != 1 {
			t.Fatalf("sweep %d: timeout %d, want 1", i, got)
		}
	}
}

// TestGISweepFixedWithoutAdaptive pins that the knob is opt-in: without
// AdaptiveGITimeout the period never moves, busy or idle.
func TestGISweepFixedWithoutAdaptive(t *testing.T) {
	l, _ := sweepL1(t, 1024, false)
	l.PutGI(2)
	l.SweepGI()
	l.SweepGI() // empty
	if got := l.CurrentGITimeout(); got != 1024 {
		t.Fatalf("timeout %d, want 1024", got)
	}
}

// sweepFault runs one sweep over two GI blocks under p and names the first
// expectation it breaks: the table's GI/Timeout row must move each block to
// I, take it out of the GI census and count it in GITimeouts.
func sweepFault(p *proto.Protocol) string {
	missing := ""
	l, st := newSweepL1(p, 1024, false, func(s cache.State, ev proto.Event) {
		missing = fmt.Sprintf("no %s/%v row", proto.L1StateName(s), ev)
	})
	const n = 2
	l.PutGI(n)
	l.SweepGI()
	for i := 0; i < n; i++ {
		if b := l.Array().Lookup(mem.Addr(0x1000 + i*64)); b == nil || b.State != cache.Invalid {
			return fmt.Sprintf("block %d not in I after the sweep %s", i, missing)
		}
	}
	if got := l.GIBlocks(); got != 0 {
		return fmt.Sprintf("GI census %d after the sweep, want 0", got)
	}
	if st.GITimeouts != n {
		return fmt.Sprintf("GITimeouts %d, want %d", st.GITimeouts, n)
	}
	return ""
}

// TestGITimeoutMutantsFailTheSweep kills the mutants of the GI/Timeout row
// outside the kill matrix. No stage of mutate.Grid arms the GI sweep, so the
// matrix files them all as unreached; here each one breaks the sweep's
// state, census or GITimeouts expectation, while ghostwriter keeps them all.
func TestGITimeoutMutantsFailTheSweep(t *testing.T) {
	gw := proto.MustLookup("ghostwriter")
	if fault := sweepFault(gw); fault != "" {
		t.Fatalf("ghostwriter: %s", fault)
	}
	killed := 0
	for _, m := range mutate.Enumerate(gw) {
		if m.Dir || cache.State(m.S) != cache.GI || proto.Event(m.E) != proto.EvTimeout {
			continue
		}
		mut, ok := m.Apply(gw)
		if !ok {
			t.Fatalf("%s does not apply", m.Describe(gw))
		}
		if sweepFault(mut) == "" {
			t.Errorf("%s: the sweep does not notice", m.Describe(gw))
			continue
		}
		killed++
	}
	if killed == 0 {
		t.Fatal("no GI/Timeout mutant enumerated")
	}
	t.Logf("%d GI/Timeout mutants killed by the sweep", killed)
}
