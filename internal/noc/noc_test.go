package noc

import (
	"testing"
	"testing/quick"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

func newNet() (*sim.Engine, *Network, *stats.Stats, *energy.Meter) {
	eng := &sim.Engine{}
	st := &stats.Stats{}
	m := &energy.Meter{}
	return eng, New(eng, DefaultConfig(), m, st), st, m
}

func TestGeometry(t *testing.T) {
	_, n, _, _ := newNet()
	if n.Nodes() != 24 {
		t.Fatalf("Nodes = %d, want 24", n.Nodes())
	}
	g := n.topo.(*gridTopo)
	if g.w != 6 || g.h != 4 {
		t.Fatalf("grid %dx%d, want 6x4", g.w, g.h)
	}
	if g.xs[0] != 0 || g.ys[0] != 0 {
		t.Fatal("node 0 should be at origin")
	}
	if g.xs[23] != 5 || g.ys[23] != 3 {
		t.Fatalf("node 23 at (%d,%d), want (5,3)", g.xs[23], g.ys[23])
	}
	for id := range g.xs {
		if g.ys[id]*g.w+g.xs[id] != id {
			t.Fatalf("node %d at (%d,%d) is not row-major", id, g.xs[id], g.ys[id])
		}
	}
	if h := n.topo.Hops(0, 23); h != 8 {
		t.Fatalf("Hops(0,23) = %d, want 8", h)
	}
	if n.topo.Hops(7, 7) != 0 {
		t.Fatal("self hops must be 0")
	}
}

func TestFlits(t *testing.T) {
	_, n, _, _ := newNet()
	if n.Flits(0) != 1 { // header-only control message
		t.Errorf("control message flits = %d, want 1", n.Flits(0))
	}
	if n.Flits(64) != 5 { // 64B data + 8B header = 72B / 16B flits
		t.Errorf("data message flits = %d, want 5", n.Flits(64))
	}
}

func TestDeliveryLatencyUncontended(t *testing.T) {
	eng, n, _, _ := newNet()
	var at sim.Cycle
	n.Register(1, func(p any) { at = eng.Now() })
	n.Register(0, func(p any) {})
	// 1 hop, 1 flit: router(1) + link(1) = cycle 2.
	n.Send(0, 1, 0, "x")
	eng.Drain(10)
	if at != 2 {
		t.Fatalf("1-hop control delivery at cycle %d, want 2", at)
	}
}

func TestDeliveryMultiHopData(t *testing.T) {
	eng, n, _, _ := newNet()
	var at sim.Cycle
	n.Register(23, func(p any) { at = eng.Now() })
	n.Register(0, func(p any) {})
	// 8 hops, 5 flits: 8*(1+1) + (5-1) = 20.
	n.Send(0, 23, 64, "d")
	eng.Drain(10)
	if at != 20 {
		t.Fatalf("8-hop data delivery at cycle %d, want 20", at)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	eng, n, _, _ := newNet()
	var times []sim.Cycle
	n.Register(1, func(p any) { times = append(times, eng.Now()) })
	n.Register(0, func(p any) {})
	// Two 5-flit messages over the same link: the second queues behind the
	// first's flit train.
	n.Send(0, 1, 64, "a")
	n.Send(0, 1, 64, "b")
	eng.Drain(10)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(times))
	}
	if times[0] != 6 { // 1 hop: 2 + 4 tail flits
		t.Errorf("first delivery at %d, want 6", times[0])
	}
	if times[1] != 11 { // departs at cycle 5 when link frees: 5+2+4
		t.Errorf("second (queued) delivery at %d, want 11", times[1])
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, n, st, _ := newNet()
	var at sim.Cycle
	n.Register(4, func(p any) { at = eng.Now() })
	n.Send(4, 4, 64, "self")
	eng.Drain(10)
	if at != 1 {
		t.Fatalf("local delivery at %d, want 1 (router only)", at)
	}
	if st.FlitHops != 0 {
		t.Error("local delivery must not consume link bandwidth")
	}
}

func TestFlitHopAccounting(t *testing.T) {
	eng, n, st, m := newNet()
	n.Register(0, func(p any) {})
	n.Register(23, func(p any) {})
	n.Send(0, 23, 64, "d") // 8 hops x 5 flits
	eng.Drain(10)
	if st.FlitHops != 40 {
		t.Fatalf("FlitHops = %d, want 40", st.FlitHops)
	}
	if m.NetworkPJ == 0 {
		t.Error("network energy not charged")
	}
	if m.MemoryPJ != 0 {
		t.Error("NoC must not charge memory energy")
	}
}

func TestPayloadIntegrityAndOrder(t *testing.T) {
	eng, n, _, _ := newNet()
	var got []int
	n.Register(2, func(p any) { got = append(got, p.(int)) })
	n.Register(0, func(p any) {})
	for i := 0; i < 5; i++ {
		n.Send(0, 2, 0, i)
	}
	eng.Drain(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-path messages reordered: %v", got)
		}
	}
}

// Property: XY hop count equals Manhattan distance for all node pairs, and
// routes are symmetric in length.
func TestHopsProperty(t *testing.T) {
	_, n, _, _ := newNet()
	g := n.topo.(*gridTopo)
	f := func(a, b uint8) bool {
		s := NodeID(int(a) % n.Nodes())
		d := NodeID(int(b) % n.Nodes())
		man := abs(g.xs[s]-g.xs[d]) + abs(g.ys[s]-g.ys[d])
		return n.topo.Hops(s, d) == man && n.topo.Hops(d, s) == man
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: route length matches Hops and every hop moves to an adjacent
// node (validated indirectly through delivery latency lower bound).
func TestDeliveryNeverBeatsLatencyBound(t *testing.T) {
	f := func(a, b uint8, size uint8) bool {
		eng := &sim.Engine{}
		st := &stats.Stats{}
		m := &energy.Meter{}
		n := New(eng, DefaultConfig(), m, st)
		src := NodeID(int(a) % n.Nodes())
		dst := NodeID(int(b) % n.Nodes())
		if src == dst {
			return true
		}
		for id := 0; id < n.Nodes(); id++ {
			n.Register(NodeID(id), func(p any) {})
		}
		flits := n.Flits(int(size))
		at := n.Send(src, dst, int(size), nil)
		bound := sim.Cycle(n.topo.Hops(src, dst)*2 + flits - 1)
		return at >= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopLinks(t *testing.T) {
	eng, n, _, _ := newNet()
	for id := 0; id < n.Nodes(); id++ {
		id := NodeID(id)
		n.Register(id, func(p any) {})
	}
	// Hammer one path, lightly touch another.
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 64, "hot")
	}
	n.Send(7, 6, 0, "cool")
	eng.Drain(1000)
	top := n.TopLinks(2)
	if len(top) != 2 {
		t.Fatalf("got %d links, want 2", len(top))
	}
	if top[0].From != 0 || top[0].To != 1 {
		t.Fatalf("hottest link %d→%d, want 0→1", top[0].From, top[0].To)
	}
	if top[0].Msgs != 10 || top[0].BusyCycles != 50 { // 10 msgs x 5 flits
		t.Fatalf("hot link accounting: %+v", top[0])
	}
	if top[1].From != 7 || top[1].Msgs != 1 {
		t.Fatalf("cool link accounting: %+v", top[1])
	}
	if got := n.TopLinks(0); len(got) != 2 {
		t.Fatalf("k=0 should return all busy links, got %d", len(got))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
