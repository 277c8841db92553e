package coherence

import (
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// sweepL1 builds an idle L1 whose giSweep can be driven directly, without a
// directory (the sweep never sends messages).
func sweepL1(t *testing.T, giTimeout sim.Cycle, adaptive bool) *L1 {
	t.Helper()
	eng := &sim.Engine{}
	st := &stats.Stats{}
	meter := &energy.Meter{}
	net := noc.New(eng, noc.DefaultConfig(), meter, st)
	l := NewL1(0, eng, net, L1Config{
		Cache:             cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64},
		HitLatency:        2,
		GITimeout:         giTimeout,
		Proto:             proto.MustLookup("ghostwriter"),
		AdaptiveGITimeout: adaptive,
	}, func(mem.Addr) noc.NodeID { return 5 }, meter, st)
	l.UsePool(&MsgPool{})
	l.stopped = false
	return l
}

// putGI installs n distinct blocks in state GI. Installing behind the
// L1's back must keep the GI census in step, like installAndRequest does.
func putGI(l *L1, n int) {
	for i := 0; i < n; i++ {
		a := mem.Addr(0x1000 + i*64)
		v := l.arr.VictimWay(a)
		if v.Valid && v.State == cache.GI {
			l.giBlocks--
		}
		l.arr.Evict(v)
		l.arr.Install(v, a, cache.GI, nil)
		l.giBlocks++
	}
}

// TestGISweepAdaptiveHalvesToFloor pins the lower clamp: busy sweeps (>= 2
// discarded residencies) halve the period until exactly GITimeout/8, and a
// further busy sweep at the floor leaves it unchanged.
func TestGISweepAdaptiveHalvesToFloor(t *testing.T) {
	l := sweepL1(t, 1024, true)
	want := []sim.Cycle{512, 256, 128, 128, 128}
	for i, w := range want {
		putGI(l, 2)
		l.giSweep()
		if got := l.CurrentGITimeout(); got != w {
			t.Fatalf("sweep %d: timeout %d, want %d", i, got, w)
		}
	}
	if l.st.GITimeouts != uint64(2*len(want)) {
		t.Fatalf("GITimeouts %d, want %d", l.st.GITimeouts, 2*len(want))
	}
}

// TestGISweepAdaptiveDoublesToCeiling pins the upper clamp: empty sweeps
// double the period until exactly 4*GITimeout, then hold.
func TestGISweepAdaptiveDoublesToCeiling(t *testing.T) {
	l := sweepL1(t, 1024, true)
	want := []sim.Cycle{2048, 4096, 4096, 4096}
	for i, w := range want {
		l.giSweep()
		if got := l.CurrentGITimeout(); got != w {
			t.Fatalf("sweep %d: timeout %d, want %d", i, got, w)
		}
	}
}

// TestGISweepAdaptiveSingleResidencyHolds pins the middle of the adaptation
// band: a sweep that discards exactly one residency neither halves (that
// needs >= 2) nor doubles (that needs 0).
func TestGISweepAdaptiveSingleResidencyHolds(t *testing.T) {
	l := sweepL1(t, 1024, true)
	putGI(l, 1)
	l.giSweep()
	if got := l.CurrentGITimeout(); got != 1024 {
		t.Fatalf("timeout %d, want unchanged 1024", got)
	}
	if l.st.GITimeouts != 1 {
		t.Fatalf("GITimeouts %d, want 1", l.st.GITimeouts)
	}
}

// TestGISweepAdaptiveFloorOne pins the 1-cycle safety clamp: with
// GITimeout 1 the floor GITimeout/8 truncates to 0, so a busy sweep halves
// 1 to 0 and the final clamp restores 1 — the period can never reach 0.
func TestGISweepAdaptiveFloorOne(t *testing.T) {
	l := sweepL1(t, 1, true)
	for i := 0; i < 3; i++ {
		putGI(l, 2)
		l.giSweep()
		if got := l.CurrentGITimeout(); got != 1 {
			t.Fatalf("sweep %d: timeout %d, want 1", i, got)
		}
	}
}

// TestGISweepFixedWithoutAdaptive pins that the knob is opt-in: without
// AdaptiveGITimeout the period never moves, busy or idle.
func TestGISweepFixedWithoutAdaptive(t *testing.T) {
	l := sweepL1(t, 1024, false)
	putGI(l, 2)
	l.giSweep()
	l.giSweep() // empty
	if got := l.CurrentGITimeout(); got != 1024 {
		t.Fatalf("timeout %d, want 1024", got)
	}
}

// TestNewL1NilProtoPanics: an L1 resolves no protocol name itself
// (machine.New does), so a config without a table must fail at
// construction with a message that names the field.
func TestNewL1NilProtoPanics(t *testing.T) {
	msg := panicText(func() {
		NewL1(0, &sim.Engine{}, nil, L1Config{
			Cache: cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64},
		}, func(mem.Addr) noc.NodeID { return 5 }, nil, nil)
	})
	if !strings.Contains(msg, "L1Config.Proto") {
		t.Fatalf("NewL1 with a nil Proto panicked with %q, want a message naming L1Config.Proto", msg)
	}
}
