package coherence_test

import (
	"fmt"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// sweepL1 builds an idle ghostwriter L1 whose GI sweep can be driven
// directly (the sweep never sends messages).
func sweepL1(t *testing.T, giTimeout sim.Cycle, adaptive bool) (*coherence.L1, *stats.Stats) {
	t.Helper()
	_, l1s, st := sweepFabric(proto.MustLookup("ghostwriter"), 1, giTimeout, adaptive, nil)
	return l1s[0], st
}

// sweepFabric builds n idle L1s (and their directory, at node 5) under p.
func sweepFabric(p *proto.Protocol, n int, giTimeout sim.Cycle, adaptive bool,
	onMissing func(int, cache.State, proto.Event)) (*sim.Engine, []*coherence.L1, *stats.Stats) {
	eng, st := &sim.Engine{}, &stats.Stats{}
	f := coherence.NewMeshFabric(eng, mem.New(), st, coherence.FabricConfig{Cores: n, DirNodes: []int{5}, Proto: p,
		L1: coherence.L1Config{
			Cache:             cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64},
			GITimeout:         giTimeout,
			AdaptiveGITimeout: adaptive,
			OnMissing:         onMissing,
		}})
	return eng, f.L1s, st
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
	_, l1s, st := sweepFabric(p, 1, 1024, false, func(_ int, s cache.State, ev proto.Event) {
		missing = fmt.Sprintf("no %s/%v row", proto.L1StateName(s), ev)
	})
	l := l1s[0]
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

// sweepMachine builds n idle ghostwriter L1s on one engine and a Sweeper
// over them.
func sweepMachine(n int, adaptive bool) (*sim.Engine, []*coherence.L1, *coherence.Sweeper) {
	eng, l1s, _ := sweepFabric(proto.MustLookup("ghostwriter"), n, 1024, adaptive, nil)
	return eng, l1s, coherence.NewSweeper(eng, l1s)
}

// TestSweeperOneEventPerPeriod: with a fixed period the sweeper fires one
// event per period for all its L1s and visits each of them, and once
// stopped its pending event fires as a no-op.
func TestSweeperOneEventPerPeriod(t *testing.T) {
	eng, l1s, sw := sweepMachine(4, false)
	l1s[0].PutGI(2)
	l1s[3].PutGI(1)
	sw.Start()
	eng.RunTo(3*1024 + 1)
	if got := eng.Fired(); got != 3 || sw.Armed() != 1 {
		t.Fatalf("%d events fired in three periods with %d armed, want 3 and 1", got, sw.Armed())
	}
	for i, l := range l1s {
		if l.GIBlocks() != 0 {
			t.Errorf("L1 %d still holds %d GI blocks", i, l.GIBlocks())
		}
	}
	sw.Stop()
	if fired, drained := eng.Drain(10); fired != 1 || !drained || sw.Armed() != 0 {
		t.Fatalf("Drain after Stop fired %d (drained %v, %d armed), want one no-op", fired, drained, sw.Armed())
	}
}

// TestSweeperGroupsByPeriod: under the adaptive policy a busy L1 halves
// its period and idle ones double theirs, so one firing re-arms two
// groups; the sweeper never arms more events than it has L1s.
func TestSweeperGroupsByPeriod(t *testing.T) {
	eng, l1s, sw := sweepMachine(4, true)
	l1s[1].PutGI(2)
	sw.Start()
	eng.RunTo(1024)
	if sw.Armed() != 2 {
		t.Fatalf("%d groups armed after the first sweep, want 2 (512 and 2048 cycles)", sw.Armed())
	}
	if got := []sim.Cycle{l1s[0].CurrentGITimeout(), l1s[1].CurrentGITimeout()}; got[0] != 2048 || got[1] != 512 {
		t.Fatalf("periods %v, want [2048 512]", got)
	}
	eng.RunTo(1024 + 512)
	if got := eng.Fired(); got != 2 || sw.Armed() != 2 {
		t.Fatalf("%d events fired with %d armed, want 2 and 2", got, sw.Armed())
	}
	sw.Stop()
	eng.Drain(10)
}
