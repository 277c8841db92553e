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

// stuckStorer names runLossy's storer as a stuck run must: its L1 waits in
// SM_A for the lost ack, and its block's home directory (one of four,
// interleaved) has recorded it as owner and holds the line busy.
func stuckStorer(x uint64) string {
	return fmt.Sprintf("thread 0 on core 0 waits on %#x (L1 state SM_A; home directory at node %d: DM, line busy true)",
		x, DefaultConfig().DirNodes[x/64%4])
}

// TestRunPanicsOnStuckThread: a protocol whose S/Inv row forgets to ack
// leaves the storer waiting for an ack that never comes. The event queue
// drains with that thread still live, and Run panics naming the thread,
// its core, its address, the L1 state there and its home directory's node,
// state and busy line instead of returning a partial cycle count.
func TestRunPanicsOnStuckThread(t *testing.T) {
	x, msg := runLossy(lossyInv("mesi"))
	if want := stuckStorer(x); !strings.Contains(msg, want) {
		t.Errorf("panic %q, want it to name %q", msg, want)
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
	want := stuckStorer(got.x)
	if !strings.Contains(got.msg, "only GI sweeps are pending") || !strings.Contains(got.msg, want) {
		t.Errorf("panic %q, want the GI-sweep deadlock naming %q", got.msg, want)
	}
}
