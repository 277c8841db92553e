package coherence

import (
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/dram"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// rig is a minimal two-L1 + one-directory testbed wired over a real mesh,
// for driving the protocol components directly (the machine package tests
// drive them through full programs; these tests pin down component-level
// behaviour).
type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	dir  *Directory
	l1s  []*L1
	st   *stats.Stats
	back *mem.Memory
}

// newRig builds cores 0..n-1 with a directory at node 5 (a 6x4 corner).
func newRig(t *testing.T, n int, gw bool) *rig {
	t.Helper()
	r := &rig{eng: &sim.Engine{}, st: &stats.Stats{}, back: mem.New()}
	meter := &energy.Meter{}
	r.net = noc.New(r.eng, noc.DefaultConfig(), meter, r.st)
	dirNode := noc.NodeID(5)
	ch := dram.NewChannel(r.eng, dram.DefaultConfig(), r.back, meter, r.st)
	prot := proto.MustLookup("mesi")
	if gw {
		prot = proto.MustLookup("ghostwriter")
	}
	r.dir = NewDirectory(0, dirNode, r.eng, r.net, DirConfig{
		Latency: 6, L2Latency: 10, BlockSize: 64,
		Proto: prot,
	}, ch, meter, r.st)
	home := func(mem.Addr) noc.NodeID { return dirNode }
	for i := 0; i < n; i++ {
		r.l1s = append(r.l1s, NewL1(i, r.eng, r.net, L1Config{
			Cache:      cache.Config{SizeBytes: 4 * 64, Ways: 2, BlockSize: 64},
			HitLatency: 2,
			GITimeout:  4096,
			Proto:      prot,
		}, home, meter, r.st))
	}
	for node := 0; node < r.net.Nodes(); node++ {
		node := noc.NodeID(node)
		r.net.Register(node, func(p any) {
			m := p.(*Msg)
			if m.ToDir {
				r.dir.HandleMsg(m)
				return
			}
			r.l1s[int(node)].HandleMsg(m)
		})
	}
	return r
}

// do issues one op on core id and runs the engine until it completes,
// returning the op's value.
func (r *rig) do(t *testing.T, id int, kind OpKind, a mem.Addr, width int, v uint64, d int) uint64 {
	t.Helper()
	var result uint64
	done := false
	r.l1s[id].Access(&CoreOp{
		Kind: kind, Addr: a, Width: width, Value: v, DDist: d,
		Done: func(val uint64) { result = val; done = true },
	})
	if !r.eng.RunUntil(func() bool { return done }) {
		t.Fatalf("core %d op on %#x never completed", id, a)
	}
	// Let trailing protocol messages (unblocks, acks) settle within a
	// bounded window — a plain drain would chase the self-rescheduling GI
	// sweep forever.
	r.settle(400)
	return result
}

// settle advances simulated time by the given window, firing only what is
// due in it (periodic sweeps beyond the window stay queued).
func (r *rig) settle(window sim.Cycle) {
	r.eng.RunTo(r.eng.Now() + window)
}

func (r *rig) state(id int, a mem.Addr) cache.State {
	b := r.l1s[id].Array().Lookup(a)
	if b == nil {
		return cache.State(255)
	}
	return b.State
}

func TestRigColdLoadGrantsExclusive(t *testing.T) {
	r := newRig(t, 2, false)
	r.back.WriteUint(0x1000, 4, 77)
	if got := r.do(t, 0, OpLoad, 0x1000, 4, 0, -1); got != 77 {
		t.Fatalf("cold load = %d, want 77", got)
	}
	if st := r.state(0, 0x1000); st != cache.Exclusive {
		t.Fatalf("state %v, want E", st)
	}
	if r.dir.Owner(0x1000) != 0 {
		t.Fatal("directory does not track the E owner")
	}
}

func TestRigSecondLoadSharesViaForward(t *testing.T) {
	r := newRig(t, 2, false)
	r.do(t, 0, OpStore, 0x40, 4, 99, -1) // core 0 in M
	if got := r.do(t, 1, OpLoad, 0x40, 4, 0, -1); got != 99 {
		t.Fatalf("forwarded load = %d", got)
	}
	if r.state(0, 0x40) != cache.Shared || r.state(1, 0x40) != cache.Shared {
		t.Fatalf("states %v/%v, want S/S", r.state(0, 0x40), r.state(1, 0x40))
	}
	if r.dir.Sharers(0x40) != SharerSetOf(0, 1) {
		t.Fatalf("sharers %v, want {0 1}", r.dir.Sharers(0x40).IDs())
	}
	// The downgrade wrote the dirty data back to the L2 home.
	if data, ok := r.dir.Peek(0x40); !ok || mem.DecodeUint(data[:4]) != 99 {
		t.Fatal("L2 home missing the downgraded data")
	}
}

func TestRigUpgradeInvalidatesOtherSharer(t *testing.T) {
	r := newRig(t, 3, false)
	r.do(t, 0, OpLoad, 0x80, 4, 0, -1)
	r.do(t, 1, OpLoad, 0x80, 4, 0, -1)
	r.do(t, 2, OpLoad, 0x80, 4, 0, -1)
	before := r.st.Msgs[stats.MsgUPGRADE]
	r.do(t, 1, OpStore, 0x80, 4, 5, -1)
	if r.st.Msgs[stats.MsgUPGRADE] != before+1 {
		t.Fatal("store on S did not UPGRADE")
	}
	if r.state(0, 0x80) != cache.Invalid || r.state(2, 0x80) != cache.Invalid {
		t.Fatal("other sharers not invalidated")
	}
	if r.state(1, 0x80) != cache.Modified || r.dir.Owner(0x80) != 1 {
		t.Fatal("upgrader not M / not tracked as owner")
	}
}

func TestRigScribbleGSKeepsDirectorySharer(t *testing.T) {
	r := newRig(t, 2, true)
	r.do(t, 0, OpLoad, 0xC0, 4, 0, -1)
	r.do(t, 1, OpLoad, 0xC0, 4, 0, -1)
	msgs := r.st.TotalMsgs()
	r.do(t, 1, OpScribble, 0xC0, 4, 1, 4) // 0→1: similar
	if r.st.TotalMsgs() != msgs {
		t.Fatal("GS entry generated traffic")
	}
	if r.state(1, 0xC0) != cache.GS {
		t.Fatalf("state %v, want GS", r.state(1, 0xC0))
	}
	// Directory still lists core 1 as a sharer even though its copy is
	// hidden-dirty.
	if !r.dir.Sharers(0xC0).Has(1) {
		t.Fatal("GS copy fell off the sharer list")
	}
	// The hidden value is locally visible, invisible at the home.
	if got := r.do(t, 1, OpLoad, 0xC0, 4, 0, -1); got != 1 {
		t.Fatalf("local read of GS = %d", got)
	}
	if data, ok := r.dir.Peek(0xC0); !ok || mem.DecodeUint(data[:4]) != 0 {
		t.Fatal("hidden update leaked to the L2 home")
	}
}

func TestRigStaleUpgradePromotedToGETX(t *testing.T) {
	r := newRig(t, 2, false)
	// Both share the block.
	r.do(t, 0, OpLoad, 0x100, 4, 0, -1)
	r.do(t, 1, OpLoad, 0x100, 4, 0, -1)
	// Fire both stores without draining in between: core 0's UPGRADE and
	// core 1's UPGRADE race; the loser is invalidated before its UPGRADE
	// is processed and must be answered with data.
	var done0, done1 bool
	r.l1s[0].Access(&CoreOp{Kind: OpStore, Addr: 0x100, Width: 4, Value: 10, DDist: -1,
		Done: func(uint64) { done0 = true }})
	r.l1s[1].Access(&CoreOp{Kind: OpStore, Addr: 0x100, Width: 4, Value: 20, DDist: -1,
		Done: func(uint64) { done1 = true }})
	if !r.eng.RunUntil(func() bool { return done0 && done1 }) {
		t.Fatal("racing upgrades deadlocked")
	}
	r.eng.Drain(100_000)
	// Exactly one core ends as owner in M; the other is invalid.
	owner := r.dir.Owner(0x100)
	if owner != 0 && owner != 1 {
		t.Fatalf("no owner after racing upgrades (owner=%d)", owner)
	}
	if r.state(owner, 0x100) != cache.Modified {
		t.Fatal("winner not in M")
	}
	if r.state(1-owner, 0x100) != cache.Invalid {
		t.Fatal("loser not invalidated")
	}
	// The final coherent value is the serialization winner's... the later
	// transaction wins; either way it must be one of the stored values.
	b := r.l1s[owner].Array().Lookup(0x100)
	if v := b.ReadWord(0, 4); v != 10 && v != 20 {
		t.Fatalf("final value %d is neither store", v)
	}
}

func TestRigEvictionWritesBackThroughPUTM(t *testing.T) {
	r := newRig(t, 1, false)
	// The rig L1 has 2 sets x 2 ways; three conflicting stores force a
	// dirty eviction.
	const stride = 2 * 64 // same set
	r.do(t, 0, OpStore, 0x0, 4, 11, -1)
	r.do(t, 0, OpStore, stride, 4, 22, -1)
	r.do(t, 0, OpStore, 2*stride, 4, 33, -1) // evicts one of the first two
	if data, ok := r.dir.Peek(0x0); ok {
		if mem.DecodeUint(data[:4]) != 11 {
			t.Fatalf("writeback corrupted: %d", mem.DecodeUint(data[:4]))
		}
	} else if data, ok := r.dir.Peek(stride); ok {
		if mem.DecodeUint(data[:4]) != 22 {
			t.Fatalf("writeback corrupted: %d", mem.DecodeUint(data[:4]))
		}
	} else {
		t.Fatal("no victim reached the L2 home")
	}
	if !r.dir.Quiesced() {
		t.Fatal("directory not quiesced")
	}
}

func TestRigGITimeoutSweepIsPeriodic(t *testing.T) {
	r := newRig(t, 2, true)
	r.l1s[1].StartSweep()
	// Build an I-with-tag copy at core 1.
	r.do(t, 1, OpLoad, 0x140, 4, 0, -1)
	r.do(t, 0, OpStore, 0x140, 4, 200, -1) // invalidates core 1
	if r.state(1, 0x140) != cache.Invalid {
		t.Fatal("setup failed")
	}
	r.do(t, 1, OpScribble, 0x140, 4, 3, 4) // vs stale 0: similar → GI
	if r.state(1, 0x140) != cache.GI {
		t.Fatalf("state %v, want GI", r.state(1, 0x140))
	}
	// Let the (4096-cycle) sweep fire.
	r.settle(2 * 4096)
	if r.state(1, 0x140) != cache.Invalid {
		t.Fatalf("GI not swept back to I: %v", r.state(1, 0x140))
	}
	if r.st.GITimeouts == 0 {
		t.Fatal("timeout counter not bumped")
	}
	r.l1s[1].Stop()
	r.eng.Drain(100_000)
}
