package noc

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// pricedSend is one message of the differential's traffic.
type pricedSend struct {
	at       sim.Cycle
	src, dst NodeID
	bytes    int
}

// pricingTraffic is a seeded traffic mix in (cycle, source tile) order —
// the order the staged merge imposes, so immediate mode arbitrates links in
// it too. Besides random singles (some local), it has fan-ins (several
// sources, one destination, one cycle: they queue on the destination's last
// links) and trains (one source, one destination, back to back: they queue
// on every link of the route).
func pricingTraffic(nodes int) []pricedSend {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 8, 64, 72, 136} // control, word, block, block+word, two blocks
	var out []pricedSend
	var at sim.Cycle
	for len(out) < 2400 {
		at += sim.Cycle(rng.Intn(30))
		switch rng.Intn(4) {
		case 0: // fan-in
			dst := NodeID(rng.Intn(nodes))
			for _, s := range rng.Perm(nodes)[:3+rng.Intn(6)] {
				out = append(out, pricedSend{at, NodeID(s), dst, 64})
			}
		case 1: // train
			src, dst := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
			for i, n := 0, 2+rng.Intn(5); i < n; i++ {
				out = append(out, pricedSend{at + sim.Cycle(i/2), src, dst, sizes[rng.Intn(len(sizes))]})
			}
		default:
			src := NodeID(rng.Intn(nodes))
			dst := src
			if rng.Intn(6) != 0 {
				dst = NodeID(rng.Intn(nodes))
			}
			out = append(out, pricedSend{at, src, dst, sizes[rng.Intn(len(sizes))]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].src < out[j].src
	})
	return out
}

// TestImmediateAndStagedPriceAlike pins the claim in deliverAt's comment:
// noc.New on a bare engine (what the model checker and the mutation matrix
// run on) and noc.NewSharded on a sim.Cluster (what ships) price the
// same tile-ordered traffic identically — every delivery cycle, the flit-hop
// count, every link's occupancy, and the network energy up to the order in
// which staged mode's per-tile meters are summed. What it does not cover is
// same-cycle sends issued out of tile order, which immediate mode arbitrates
// in firing order and staged mode in tile order.
func TestImmediateAndStagedPriceAlike(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			cfg := topoConfig(t, name, 24)
			nodes := cfg.NodeCount()
			sends := pricingTraffic(nodes)

			// run issues every send from an event on its source tile's engine
			// and returns each message's delivery cycle.
			run := func(net *Network, tile func(int) *sim.Engine, drain func(uint64) (uint64, bool)) []sim.Cycle {
				got := make([]sim.Cycle, len(sends))
				for n := 0; n < nodes; n++ {
					eng := tile(n)
					net.Register(NodeID(n), func(p any) { got[p.(int)] = eng.Now() })
				}
				for i, s := range sends {
					tile(int(s.src)).At(s.at, func() { net.Send(s.src, s.dst, s.bytes, i) })
				}
				if _, ok := drain(1 << 20); !ok {
					t.Fatal("traffic did not drain")
				}
				return got
			}

			eng, imSt, imMeter := &sim.Engine{}, &stats.Stats{}, &energy.Meter{}
			im := New(eng, cfg, imMeter, imSt)
			imAt := run(im, func(int) *sim.Engine { return eng }, eng.Drain)

			clu := sim.NewCluster(nodes, cfg.Lookahead(), 1)
			tileMeters, tileStats := make([]*energy.Meter, nodes), make([]*stats.Stats, nodes)
			for i := range tileMeters {
				tileMeters[i], tileStats[i] = &energy.Meter{}, &stats.Stats{}
			}
			stSt, stMeter := &stats.Stats{}, &energy.Meter{}
			st := NewSharded(clu, cfg, tileMeters, tileStats, stMeter, stSt)
			stAt := run(st, clu.Tile, clu.Drain)
			for _, m := range tileMeters {
				stMeter.Add(m)
			}

			queued := 0
			for i, s := range sends {
				if imAt[i] != stAt[i] {
					t.Fatalf("send %d (%d→%d, %d B at cycle %d): delivered at %d immediate, %d staged",
						i, s.src, s.dst, s.bytes, s.at, imAt[i], stAt[i])
				}
				if s.src != s.dst && imAt[i] > s.at+sim.Cycle(im.Hops(s.src, s.dst))*im.topo.HopDelay()+sim.Cycle(im.Flits(s.bytes)-1) {
					queued++
				}
			}
			if queued < len(sends)/20 {
				t.Fatalf("only %d of %d messages waited for a link: the traffic does not contend", queued, len(sends))
			}
			if imSt.FlitHops == 0 || imSt.FlitHops != stSt.FlitHops {
				t.Fatalf("FlitHops: %d immediate, %d staged", imSt.FlitHops, stSt.FlitHops)
			}
			if a, b := im.TopLinks(0), st.TopLinks(0); !reflect.DeepEqual(a, b) {
				t.Fatalf("link occupancy differs:\nimmediate %+v\nstaged    %+v", a, b)
			}
			if a, b := imMeter.NetworkPJ, stMeter.NetworkPJ; a == 0 || math.Abs(a-b) > 1e-9*a {
				t.Fatalf("NetworkPJ: %v immediate, %v staged", a, b)
			}
		})
	}
}
