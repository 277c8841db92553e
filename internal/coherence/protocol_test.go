package coherence

import (
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
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
	fab  *Fabric
	dir  *Directory
	l1s  []*L1
	st   *stats.Stats
	back *mem.Memory
}

// newRig builds cores 0..n-1 with a directory at node 5 (a 6x4 corner).
func newRig(t *testing.T, n int, gw bool) *rig {
	t.Helper()
	prot := proto.MustLookup("mesi")
	if gw {
		prot = proto.MustLookup("ghostwriter")
	}
	r := &rig{eng: &sim.Engine{}, st: &stats.Stats{}, back: mem.New()}
	r.fab = NewMeshFabric(r.eng, r.back, r.st, FabricConfig{Cores: n, DirNodes: []int{5}, Proto: prot,
		L1: L1Config{Cache: cache.Config{SizeBytes: 4 * 64, Ways: 2, BlockSize: 64}, GITimeout: 4096}})
	r.dir, r.l1s = r.fab.Dirs[0], r.fab.L1s
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

// TestRigLastSharerPUTLeavesDI: a listed sharer's PUTS keeps the line in
// DS while another sharer is left, and the last sharer's PUTS takes it to
// DI (DS/PUTS's "req only sharer" rule). No kill-grid sweep dispatches
// DS/PUTS under mesi, so this is that rule's cover.
func TestRigLastSharerPUTLeavesDI(t *testing.T) {
	r := newRig(t, 2, false)
	const a, stride = mem.Addr(0), mem.Addr(2 * 64) // the rig L1 has 2 sets x 2 ways
	r.do(t, 0, OpLoad, a, 4, 0, -1)
	r.do(t, 1, OpLoad, a, 4, 0, -1) // both share a
	if r.dir.State(a) != proto.DirShared || r.dir.Sharers(a) != SharerSetOf(0, 1) {
		t.Fatalf("setup: directory %v with sharers %v, want DS {0 1}", r.dir.State(a), r.dir.Sharers(a).IDs())
	}
	// evict fills the victim's set at core id with two other blocks; a is
	// the set's least recently used, so it leaves with a PUTS.
	evict := func(id int, first mem.Addr) {
		r.do(t, id, OpLoad, first, 4, 0, -1)
		r.do(t, id, OpLoad, first+stride, 4, 0, -1)
		if r.state(id, a) != cache.State(255) {
			t.Fatalf("core %d still holds a", id)
		}
	}
	evict(0, stride)
	if r.dir.State(a) != proto.DirShared || r.dir.Sharers(a) != SharerSetOf(1) {
		t.Fatalf("after the first PUTS: directory %v with sharers %v, want DS {1}",
			r.dir.State(a), r.dir.Sharers(a).IDs())
	}
	evict(1, 3*stride)
	if r.dir.State(a) != proto.DirInvalid {
		t.Fatalf("after the last PUTS: directory %v, want DI", r.dir.State(a))
	}
	if !r.dir.Quiesced() {
		t.Fatal("directory not quiesced")
	}
}

func TestRigGITimeoutSweepIsPeriodic(t *testing.T) {
	r := newRig(t, 2, true)
	sw := NewSweeper(r.eng, r.l1s[1:])
	sw.Start()
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
	sw.Stop()
	r.eng.Drain(100_000)
}

// TestL1RejectsRacesTheDirectoryBlocks: the directory holds a line busy
// until the requestor's Unblock, which only its fill sends, so no Inv
// reaches an L1 waiting in IS_D and no forward reaches one waiting in IM_D
// or SM_A. Such a message is a missing transition, not a race to absorb: it
// panics, or with OnMissing set it is reported as that pair, the L1 keeps
// no part of it, and the outstanding transaction completes as if it had
// never come.
func TestL1RejectsRacesTheDirectoryBlocks(t *testing.T) {
	const a = mem.Addr(0x40)
	// waiting leaves core 0 with an op outstanding on a in state want; the
	// flag it returns is set when that op completes.
	waiting := func(t *testing.T, r *rig, want cache.State) *bool {
		t.Helper()
		kind := OpStore
		switch want {
		case cache.ISD:
			kind = OpLoad
		case cache.SMA:
			r.do(t, 0, OpLoad, a, 4, 0, -1)
			r.do(t, 1, OpLoad, a, 4, 0, -1) // both share a
		}
		done := new(bool)
		r.l1s[0].Access(&CoreOp{Kind: kind, Addr: a, Width: 4, Value: 9, DDist: -1,
			Done: func(uint64) { *done = true }})
		if st := r.state(0, a); st != want {
			t.Fatalf("setup left core 0 in %v, want %v", proto.L1StateName(st), proto.L1StateName(want))
		}
		return done
	}
	for _, c := range []struct {
		state cache.State
		msg   MsgType
	}{
		{cache.ISD, Inv},
		{cache.IMD, FwdGETS},
		{cache.IMD, FwdGETX},
		{cache.SMA, FwdGETS},
		{cache.SMA, FwdGETX},
	} {
		pair := proto.L1StateName(c.state) + "/" + eventOf(c.msg).String()
		t.Run(pair, func(t *testing.T) {
			r := newRig(t, 2, true)
			waiting(t, r, c.state)
			msg := panicText(func() {
				r.l1s[0].HandleMsg(&Msg{Type: c.msg, Addr: a, Requestor: 1})
			})
			want := "no " + eventOf(c.msg).String() + " transition in state " + proto.L1StateName(c.state)
			if !strings.Contains(msg, want) {
				t.Fatalf("delivering %v panicked with %q, want %q", c.msg, msg, want)
			}

			r = newRig(t, 2, true)
			done := waiting(t, r, c.state)
			var missing []string
			r.l1s[0].cfg.OnMissing = func(_ int, s cache.State, ev proto.Event) {
				missing = append(missing, proto.L1StateName(s)+"/"+ev.String())
			}
			pool := &r.fab.pool
			m := pool.Get()
			m.Type, m.Addr, m.Requestor = c.msg, a, 1
			r.l1s[0].HandleMsg(m)
			if len(missing) != 1 || missing[0] != pair {
				t.Fatalf("OnMissing reported %v, want [%s]", missing, pair)
			}
			if pool.Get() != m {
				t.Fatal("the L1 kept the message instead of recycling it")
			}
			if st := r.state(0, a); st != c.state {
				t.Fatalf("the message moved core 0 to %v", proto.L1StateName(st))
			}
			if !r.eng.RunUntil(func() bool { return *done }) {
				t.Fatal("the outstanding op never completed")
			}
			r.settle(400)
			if !r.dir.Quiesced() || len(missing) != 1 {
				t.Fatalf("directory quiesced %v, missing pairs %v", r.dir.Quiesced(), missing)
			}
		})
	}
}

// TestNewL1NilProtoPanics: an L1 resolves no protocol name itself
// (machine.New does), so a config without a table must fail at
// construction with a message that names the field.
func TestNewL1NilProtoPanics(t *testing.T) {
	msg := panicText(func() {
		newL1(0, &sim.Engine{}, nil, FabricConfig{
			L1: L1Config{Cache: cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64}},
		}, nil, nil, nil)
	})
	if !strings.Contains(msg, "FabricConfig.Proto") {
		t.Fatalf("newL1 with a nil Proto panicked with %q, want a message naming FabricConfig.Proto", msg)
	}
}

// TestNewFabricNilProtoPanics: the fabric resolves no protocol name itself
// (machine.New does), so a config without a table must fail at
// construction of its first controller with a message that names the field, not at the first
// request with a nil dereference.
func TestNewFabricNilProtoPanics(t *testing.T) {
	msg := panicText(func() {
		NewMeshFabric(&sim.Engine{}, mem.New(), &stats.Stats{}, FabricConfig{Cores: 1, DirNodes: []int{5},
			L1: L1Config{Cache: cache.Config{SizeBytes: 8 * 64, Ways: 2, BlockSize: 64}}})
	})
	if !strings.Contains(msg, "FabricConfig.Proto") {
		t.Fatalf("NewFabric with a nil Proto panicked with %q, want a message naming FabricConfig.Proto", msg)
	}
}

// TestFabricMisroutePanics: a directory message at a node without a
// directory, or an L1 message at a node without a core, panics naming the
// node instead of reaching a controller it is not for.
func TestFabricMisroutePanics(t *testing.T) {
	for node, want := range map[noc.NodeID]string{
		1: "directory message at non-home node 1", // a core's node
		7: "L1 message at coreless node 7",
	} {
		r := newRig(t, 2, false)
		msg := panicText(func() {
			r.l1s[0].net.Send(0, node, 0, &Msg{Type: Inv, ToDir: node == 1})
			r.eng.Drain(1000)
		})
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want %q", msg, want)
		}
	}
}

// TestFabricHomeMap: with one to four homes (three takes the modulo branch)
// Home(a) is Dirs[(a/block) % n], and an L1 miss's request is handled by
// that directory and no other.
func TestFabricHomeMap(t *testing.T) {
	for n := 1; n <= 4; n++ {
		eng := &sim.Engine{}
		f := NewMeshFabric(eng, mem.New(), &stats.Stats{}, FabricConfig{Cores: 1, DirNodes: []int{5, 11, 17, 23}[:n],
			Proto: proto.MustLookup("mesi"), L1: L1Config{Cache: cache.Config{SizeBytes: 64 * 64, Ways: 2, BlockSize: 64}}})
		for b := 0; b < 8; b++ {
			a := mem.Addr(64 * b)
			if got := f.Home(a + 60); got != f.Dirs[b%n] {
				t.Fatalf("%d homes: block %d maps to directory %d, want %d", n, b, got.id, b%n)
			}
			f.L1s[0].Access(&CoreOp{Kind: OpLoad, Addr: a, Width: 4, DDist: -1, Done: func(uint64) {}})
			eng.Drain(100_000)
			for i, d := range f.Dirs {
				if tracked := d.State(a) != proto.DirInvalid; tracked != (i == b%n) {
					t.Fatalf("%d homes: after block %d's miss directory %d tracks it: %v", n, b, i, tracked)
				}
			}
		}
	}
}
