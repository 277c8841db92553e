package machine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
)

// lossyInv clones the named table with its S/Inv rows forgetting to ack.
func lossyInv(name string) *proto.Protocol {
	lossy := proto.MustLookup(name).Clone()
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
	return lossy
}

// runLossy runs, under protocol p, a kernel in which thread 0 stores to a
// word both threads hold in S: the storer waits for an ack the S/Inv row
// never sends. It returns the word and Run's panic message.
func runLossy(p *proto.Protocol) (x uint64, msg string) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	m := New(cfg)
	for i := range cfg.Cores {
		m.L1(i).SetProtocol(p)
	}
	a := m.Alloc(4, 4)
	x = uint64(a)
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	cycles := m.Run(2, func(th *Thread) {
		th.Load32(a)
		th.Barrier()
		if th.ID() == 0 {
			th.Store32(a, 1)
			th.Sync()
		}
	})
	return x, fmt.Sprintf("Run returned %d cycles with a thread still waiting", cycles)
}

// TestRunPanicsOnStuckThread: a protocol whose S/Inv row forgets to ack
// leaves the storer waiting for an ack that never comes. The event queue
// drains with that thread still live, and Run panics naming the thread,
// its core, its address and the L1 state there instead of returning a
// partial cycle count.
func TestRunPanicsOnStuckThread(t *testing.T) {
	x, msg := runLossy(lossyInv("mesi"))
	want := fmt.Sprintf("thread 0 on core 0 waits on %#x", x)
	if !strings.Contains(msg, want) || !strings.Contains(msg, "SM_A") {
		t.Errorf("panic %q, want it to name %q and the L1 state SM_A", msg, want)
	}
}

// TestRunPanicsOnGIArmedDeadlock: the same lost ack under ghostwriter,
// whose GI sweep is armed for the whole run. The queue never drains — the
// sweep re-arms every period — but once the armed sweep is all that is
// pending and nothing is staged, no event can wake the storer, and Run
// panics with the same per-thread message instead of sweeping forever.
func TestRunPanicsOnGIArmedDeadlock(t *testing.T) {
	type outcome struct {
		x   uint64
		msg string
	}
	done := make(chan outcome, 1)
	go func() {
		x, msg := runLossy(lossyInv("ghostwriter"))
		done <- outcome{x, msg}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still sweeping after 10 s: the GI-armed deadlock hangs")
	}
	want := fmt.Sprintf("thread 0 on core 0 waits on %#x", got.x)
	if !strings.Contains(got.msg, "only GI sweeps are pending") ||
		!strings.Contains(got.msg, want) || !strings.Contains(got.msg, "SM_A") {
		t.Errorf("panic %q, want the GI-sweep deadlock naming %q and the L1 state SM_A", got.msg, want)
	}
}
