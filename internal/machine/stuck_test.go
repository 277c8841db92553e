package machine

import (
	"fmt"
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
)

// TestRunPanicsOnStuckThread: a protocol whose S/Inv row forgets to ack
// leaves the storer waiting for an ack that never comes. The event queue
// drains with that thread still live, and Run panics naming the thread,
// its core, its address and the L1 state there instead of returning a
// partial cycle count.
func TestRunPanicsOnStuckThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	m := New(cfg)
	lossy := proto.MustLookup("mesi").Clone()
	rules := lossy.L1[cache.Shared][proto.EvInv]
	for i := range rules {
		var kept []proto.Action
		for _, a := range rules[i].Actions {
			if a != proto.AAckInv {
				kept = append(kept, a)
			}
		}
		rules[i].Actions = kept
	}
	for i := range cfg.Cores {
		m.L1(i).SetProtocol(lossy)
	}
	x := m.Alloc(4, 4)
	var p any
	func() {
		defer func() { p = recover() }()
		cycles := m.Run(2, func(th *Thread) {
			th.Load32(x)
			th.Barrier()
			if th.ID() == 0 {
				th.Store32(x, 1)
				th.Sync()
			}
		})
		t.Fatalf("Run returned %d cycles with a thread still waiting", cycles)
	}()
	msg, _ := p.(string)
	want := fmt.Sprintf("thread 0 on core 0 waits on %#x", uint64(x))
	if !strings.Contains(msg, want) || !strings.Contains(msg, "SM_A") {
		t.Errorf("panic %q, want it to name %q and the L1 state SM_A", msg, want)
	}
}
