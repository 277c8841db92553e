package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ghostwriter/internal/mem"
)

// thrashFingerprint runs a kernel whose working set is several times the L2
// on the tiny machine of races_test.go, so nearly every DRAM fill evicts a
// victim — while earlier evictions are still collecting their recalls, and
// while L1 evictions race them with writebacks — and hashes everything
// observable: cycles, the Stats JSON and the coherent memory image. The
// op stream depends on the values loads return.
func thrashFingerprint(tb testing.TB, protocol string, l2Blocks int) string {
	tb.Helper()
	cfg := tinyConfig(false)
	cfg.Protocol = protocol
	cfg.L2PerCoreBytes = l2Blocks * 64
	m := New(cfg)

	const (
		threads = 8
		blocks  = 96
		ops     = 300
		seed    = 0x7A5B
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}
	elapsed := m.Run(threads, func(th *Thread) {
		r := splitmix64(seed ^ uint64(th.ID())*0x9E37)
		th.SetApproxDist(4)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			word := r % (blocks * 64 / 8)
			a := region + mem.Addr(8*word)
			switch r >> 32 % 8 {
			case 0, 1, 2:
				r ^= th.Load64(a)
			case 3, 4:
				th.Store64(a, r)
			case 5:
				// Within the d-distance of the preloaded value, so a
				// scribble can find similar data in a stale copy.
				th.Scribble32(a, uint32(splitmix64(seed+word))^uint32(r>>40&7))
			case 6:
				th.Scribble32(a, th.Load32(a)^uint32(r>>40&7))
			default:
				th.Compute(1 + r%9)
			}
			if i == ops/2 {
				th.Barrier()
			}
		}
	})
	st := m.Stats()
	if st.L2Recalls < ops {
		tb.Errorf("%s l2=%d blocks: %d L2 recalls, want a thrashing bank", protocol, l2Blocks, st.L2Recalls)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d cycles=%d\n", elapsed, m.Cycles())
	stj, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(stj)
	for i := 0; i < blocks*64/8; i++ {
		fmt.Fprintf(&b, "%x,", m.ReadCoherent(region+mem.Addr(8*i), 8))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestShardL2ThrashVictimOrder pins the thrash kernel's fingerprint, per
// protocol and bank size, to the value the resident-list walk produced
// before ensureSpace stopped re-filtering the whole list on every fill
// (recorded by running this file on that commit). A victim chosen in a
// different order moves the cycle count and the recall counters, so equal
// fingerprints mean the same victims in the same order.
// The ghostwriter values moved only in Stats.Events when the GI sweep
// became one machine-level timer (EXPERIMENTS.md, "One GI-sweep timer").
func TestShardL2ThrashVictimOrder(t *testing.T) {
	pinned := map[string]string{
		"mesi/l2=2":        "32af9bc30909661842ec75ad869f253beb7db2ee2cb8854e81cc8f4b017fba96",
		"mesi/l2=3":        "8fad91750113ec2cb43f7e8a988814bcae5c63e624df726daba515d772cbd2d7",
		"mesi/l2=4":        "a24649793f6c46a0143b723984dd52a526c17ef29fad4fcc77ce6d203bc7ab95",
		"ghostwriter/l2=2": "cbd3122eedc7aea3aa449495fb69721382277b861165bf3b178beb40e893db3f",
		"ghostwriter/l2=3": "40bd81a0fdb7fcba6adf2aa4765e9b495552d1ed4443f695e49b794cbc6a4b67",
		"ghostwriter/l2=4": "096a4f3687aebfd3bb08bf2215b6007ac75f37031c9a008ae37e29fe7b8155c6",
	}
	for _, p := range []string{"mesi", "ghostwriter"} {
		for _, l2Blocks := range []int{2, 3, 4} {
			key := fmt.Sprintf("%s/l2=%d", p, l2Blocks)
			if got := thrashFingerprint(t, p, l2Blocks); got != pinned[key] {
				t.Errorf("%s: fingerprint %s, want %s", key, got, pinned[key])
			}
		}
	}
}
