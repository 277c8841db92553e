// Package noc models the on-chip interconnect from Table 1 of the paper.
// Geometry, routing, and per-hop latency live behind the pluggable Topology
// interface (topology.go): the default is the paper's 2D mesh with XY
// dimension-order routing, 1-cycle routers and 1-cycle links; a bidirectional
// ring (the one-row torus), a wraparound torus, and a single-hop crossbar
// are registered beside it. The Network flit engine is topology-independent:
// messages are segmented into flits and serialized per directed link (one
// flit per link per cycle), so a message's delivery time accounts for the
// topology's per-hop latency at every route link plus queueing behind
// earlier traffic, which is how coherence-traffic reduction turns into
// speedup.
package noc

import (
	"fmt"
	"sort"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// NodeID identifies an interconnect node (a core/L1 tile, possibly also
// hosting a directory + L2 bank).
type NodeID int

// Handler receives a delivered message payload at a node.
type Handler func(payload any)

// Table 1's interconnect timing, the same on every topology.
const (
	RouterDelay sim.Cycle = 1 // per-hop router pipeline latency
	LinkDelay   sim.Cycle = 1 // per-hop wire latency
	FlitBytes             = 16
	HeaderBytes           = 8 // per message
)

// Every hop costs at least a cycle (staged mode's lookahead window is one
// hop wide, DESIGN.md §12) and a flit carries at least a byte: otherwise
// these constant expressions underflow sim.Cycle and the build fails.
const _, _ = RouterDelay + LinkDelay - 1, sim.Cycle(FlitBytes - 1)

// Config describes the interconnect: a topology and its node count.
type Config struct {
	// Topo names the topology ("mesh", "ring", "torus", "xbar"). Empty
	// selects the mesh.
	Topo string
	// Nodes is the node count. Mesh and torus fold it into the most square
	// grid (24 → 6x4, the paper's Table 1 shape); the ring is the one-row
	// torus.
	Nodes int
}

// DefaultConfig returns the Table 1 interconnect: the 24-node (6x4) mesh.
func DefaultConfig() Config { return Config{Nodes: 24} }

// Lookahead returns the minimum cross-tile message latency — the one hop
// latency of cfg's topology, its HopDelay — which is exactly the
// conservative window width sim.Cluster needs. Total for every Topo value
// (unknown names get the mesh bound) so cache-key derivation never panics.
func (cfg Config) Lookahead() sim.Cycle {
	if canonicalTopo(cfg.Topo) == "xbar" {
		return xbarHop
	}
	return gridHop
}

// Network is an interconnect bound either to a bare simulation engine
// (immediate mode: every Send schedules its delivery right away; only the
// model checker uses it) or to a sim.Cluster (staged mode: cross-tile sends
// are staged and replayed at the window barrier, where link arbitration
// sees them in canonical (at, source tile, staging index) order). Either
// way it holds the one engine deliveries are scheduled on, taken once at
// construction.
type Network struct {
	topo     Topology
	eng      *sim.Engine
	handlers []Handler
	linkFree []sim.Cycle // indexed by directed link id
	linkBusy []sim.Cycle // cumulative flit-cycles per directed link
	linkMsgs []uint64    // messages per directed link
	routeBuf []int       // scratch for route()

	// Every router and link traversal is charged to meter and st, in
	// either mode.
	meter *energy.Meter
	st    *stats.Stats

	clu *sim.Cluster
	// mergeSendFn is n.mergeSend bound once: evaluating the method value at
	// every Stage call would allocate a closure per cross-tile send.
	mergeSendFn sim.StagedHandler
}

// New builds a network in immediate mode. meter and st may not be nil.
func New(eng *sim.Engine, cfg Config, meter *energy.Meter, st *stats.Stats) *Network {
	n := newNetwork(cfg)
	n.eng = eng
	n.meter = meter
	n.st = st
	return n
}

// NewSharded builds a network in staged mode on a tile cluster (the name
// predates the single engine; benchmark/ imports it). Local (src == dst)
// sends schedule directly on the cluster's engine; cross-tile sends are
// staged and routed at the window barrier. Both charge mergeMeter and
// linkStats. The third and fourth parameters are ignored; they stay until
// benchmark/ stops passing them. (A network charge is a whole number of
// pJ, so where it is summed cannot move the machine's energy total.)
func NewSharded(clu *sim.Cluster, cfg Config, _ []*energy.Meter, _ []*stats.Stats, mergeMeter *energy.Meter, linkStats *stats.Stats) *Network {
	n := newNetwork(cfg)
	if clu.Tiles() != n.Nodes() {
		panic(fmt.Sprintf("noc: cluster has %d tiles for a %d-node %s", clu.Tiles(), n.Nodes(), n.topo.Name()))
	}
	n.clu = clu
	n.eng = clu.Tile(0)
	n.meter = mergeMeter
	n.st = linkStats
	n.mergeSendFn = n.mergeSend
	return n
}

func newNetwork(cfg Config) *Network {
	topo := cfg.mustTopology()
	links := topo.NumLinks()
	return &Network{
		topo:     topo,
		handlers: make([]Handler, topo.Nodes()),
		linkFree: make([]sim.Cycle, links),
		linkBusy: make([]sim.Cycle, links),
		linkMsgs: make([]uint64, links),
	}
}

// Reset returns an idle network (no message in flight) to its
// just-constructed state: every link free at cycle 0, the per-link
// utilization counters zeroed. Geometry and handlers are kept.
func (n *Network) Reset() {
	clear(n.linkFree)
	clear(n.linkBusy)
	clear(n.linkMsgs)
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Register installs the delivery handler for a node. Each node has exactly
// one handler; the machine layer dispatches to co-located components.
func (n *Network) Register(id NodeID, h Handler) {
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("noc: node %d already has a handler", id))
	}
	n.handlers[id] = h
}

// Flits returns the number of flits a payload of the given size occupies.
func (n *Network) Flits(payloadBytes int) int {
	return max(1, (payloadBytes+HeaderBytes+FlitBytes-1)/FlitBytes)
}

// route returns the topology's route as a sequence of directed-link ids. The
// returned slice aliases the network's scratch buffer and is only valid
// until the next route call.
func (n *Network) route(src, dst NodeID) []int {
	n.routeBuf = n.topo.Route(n.routeBuf[:0], src, dst)
	return n.routeBuf
}

// Send injects a message of payloadBytes from src to dst and schedules its
// delivery. Local (src == dst) messages take one path in both modes: they
// pay one router delay, consume no link bandwidth and are scheduled at
// once. The returned cycle is the delivery time, except for a staged
// cross-tile send, whose delivery time is not known until the window
// merge: Send returns 0 for it (no production caller uses the return value
// — the protocol reacts to deliveries, not to send timestamps).
func (n *Network) Send(src, dst NodeID, payloadBytes int, payload any) sim.Cycle {
	h := n.handlers[dst]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler at node %d", dst))
	}
	flits := n.Flits(payloadBytes)
	if src == dst {
		t := n.eng.Now() + RouterDelay
		n.meter.RouterTraversal(flits)
		n.eng.AtArg(t, h, payload)
		return t
	}
	if n.clu != nil {
		// Cross-tile: stage for the window barrier, which arbitrates links
		// in canonical order rather than firing order.
		n.clu.Stage(int(src), n.mergeSendFn, payload, uint64(src)|uint64(dst)<<16|uint64(flits)<<32)
		return 0
	}
	t := n.deliverAt(src, dst, flits, n.eng.Now())
	n.eng.AtArg(t, h, payload)
	return t
}

// deliverAt routes a cross-tile message injected at cycle t, updating the
// link-arbitration state and charging the network meter/stats, and returns
// the delivery cycle. Shared with the staged merge path so both modes
// price messages identically.
func (n *Network) deliverAt(src, dst NodeID, flits int, t sim.Cycle) sim.Cycle {
	hop := n.topo.HopDelay()
	for _, link := range n.route(src, dst) {
		depart := t
		if n.linkFree[link] > depart {
			depart = n.linkFree[link]
		}
		// The link is busy for the message's full flit train.
		n.linkFree[link] = depart + sim.Cycle(flits)
		n.linkBusy[link] += sim.Cycle(flits)
		n.linkMsgs[link]++
		t = depart + hop
		n.meter.RouterTraversal(flits)
		n.meter.LinkTraversal(flits)
		n.st.FlitHops += uint64(flits)
	}
	// Tail flit arrives flits-1 cycles after the head.
	return t + sim.Cycle(flits-1)
}

// mergeSend is the staged-mode merge handler for one cross-tile message:
// it routes the message from its staged injection cycle and schedules the
// delivery on the destination tile. The delivery cycle is provably at or
// beyond the merge horizon: t ≥ at + HopDelay ≥ at + lookahead, and at lies
// inside the window just drained.
func (n *Network) mergeSend(at sim.Cycle, payload any, aux uint64) {
	src := NodeID(aux & 0xffff)
	dst := NodeID(aux >> 16 & 0xffff)
	flits := int(aux >> 32)
	t := n.deliverAt(src, dst, flits, at)
	n.eng.AtArg(t, n.handlers[dst], payload)
}

// LinkUtil describes one directed link's traffic over a run.
type LinkUtil struct {
	From, To   NodeID
	Msgs       uint64
	BusyCycles uint64
}

// TopLinks returns the k busiest directed links (by flit-cycles),
// descending — the interconnect's hotspots.
func (n *Network) TopLinks(k int) []LinkUtil {
	var all []LinkUtil
	for id, busy := range n.linkBusy {
		if busy == 0 {
			continue
		}
		from, to := n.topo.LinkEnds(id)
		all = append(all, LinkUtil{
			From: from, To: to,
			Msgs: n.linkMsgs[id], BusyCycles: uint64(busy),
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].BusyCycles != all[j].BusyCycles {
			return all[i].BusyCycles > all[j].BusyCycles
		}
		return all[i].From < all[j].From
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}
