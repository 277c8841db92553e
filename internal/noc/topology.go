package noc

import (
	"fmt"
	"slices"
	"strings"

	"ghostwriter/internal/sim"
)

// Topology is the pluggable geometry/routing/latency model behind the
// Network flit engine. A topology owns the node naming, the directed-link
// namespace, and the per-hop delay; the Network owns everything a topology
// does not depend on — flit segmentation, per-link serialization, energy
// accounting, and the staged-merge discipline.
//
// Contract:
//   - Route returns the src→dst path as directed-link ids appended to buf,
//     deterministically (the same pair always routes the same way); an empty
//     route means src == dst.
//   - Every link id is < NumLinks() and LinkEnds inverts it.
//   - HopDelay is the latency a message pays per route link (router pipeline
//     plus wire traversal). A cross-node message crosses at least one link,
//     so HopDelay lower-bounds its delivery latency; Config.Lookahead, the
//     simulator's conservative window width (DESIGN.md §12/§14), equals
//     it. It is at least one cycle by construction (the assertions beside
//     the Table 1 constants in noc.go).
type Topology interface {
	// Name is the registered topology name ("mesh", "ring", "torus", "xbar").
	Name() string
	// Nodes is the node count.
	Nodes() int
	// NumLinks bounds the directed-link id namespace.
	NumLinks() int
	// Route appends the directed-link ids of the src→dst path to buf and
	// returns it (an alias of buf's array when capacity suffices).
	Route(buf []int, src, dst NodeID) []int
	// Hops returns the route length between two nodes.
	Hops(src, dst NodeID) int
	// LinkEnds returns the endpoints of a directed link.
	LinkEnds(link int) (from, to NodeID)
	// HopDelay is the per-route-link latency.
	HopDelay() sim.Cycle
	// Describe renders the topology for reports ("6x4 mesh, XY routing").
	Describe() string
}

// Topologies returns the registered topology names, sorted.
func Topologies() []string { return []string{"mesh", "ring", "torus", "xbar"} }

// canonicalTopo maps the empty name (the zero Config) to the mesh.
func canonicalTopo(name string) string {
	if name == "" {
		return "mesh"
	}
	return name
}

// ParseTopology validates a topology name for flag/spec parsing, mapping ""
// to "mesh" and rejecting unknown names with the registered alternatives.
func ParseTopology(name string) (string, error) {
	c := canonicalTopo(name)
	for _, t := range Topologies() {
		if c == t {
			return c, nil
		}
	}
	return "", fmt.Errorf("unknown topology %q (registered: %s)",
		name, strings.Join(Topologies(), ", "))
}

// Topology constructs cfg's topology model, validating the geometry.
func (cfg Config) Topology() (Topology, error) {
	n := cfg.Nodes
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	switch name := canonicalTopo(cfg.Topo); name {
	case "mesh", "torus", "ring":
		w, h := n, 1 // the ring is the one-row torus
		if name != "ring" {
			w, h = squarest(n)
		}
		g := &gridTopo{name: name, w: w, h: h, wrap: name != "mesh"}
		coords := make([]int, 2*n) // both tables in one allocation
		g.xs, g.ys = coords[:n:n], coords[n:]
		for id := range g.xs {
			g.xs[id], g.ys[id] = id%w, id/w
		}
		return g, nil
	case "xbar":
		return &xbarTopo{n: n}, nil
	}
	return nil, fmt.Errorf("noc: unknown topology %q (registered: %s)",
		cfg.Topo, strings.Join(Topologies(), ", "))
}

func checkNodes(n int) error {
	if n < 1 || n > maxNodes {
		return fmt.Errorf("noc: node count %d out of range [1, %d]", n, maxNodes)
	}
	return nil
}

// maxNodes bounds a topology's size: staged-mode sends pack src and dst into
// 16 bits each, and a crossbar allocates n² link slots.
const maxNodes = 4096

// mustTopology is Topology for construction paths that already validated.
func (cfg Config) mustTopology() Topology {
	t, err := cfg.Topology()
	if err != nil {
		panic(err.Error())
	}
	return t
}

// squarest factors n into the most square w×h grid with w ≥ h.
func squarest(n int) (w, h int) {
	for h = 1; (h+1)*(h+1) <= n; h++ {
	}
	for ; h > 1; h-- {
		if n%h == 0 {
			break
		}
	}
	return n / h, h
}

// Geometry returns the Config for a named topology at a node count. An
// empty name selects the mesh; nodes 0 keeps the default 24. Geometry("mesh",
// 24) is exactly DefaultConfig(), so naming the default-size mesh derives
// the same machine configuration as naming no topology.
func Geometry(name string, nodes int) (Config, error) {
	canonical, err := ParseTopology(name)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	if err := checkNodes(cfg.Nodes); err != nil {
		return Config{}, err
	}
	if canonical != "mesh" { // the mesh keeps Topo empty, as DefaultConfig does
		cfg.Topo = canonical
	}
	return cfg, nil
}

// DefaultHomes places k directory homes on cfg's topology: the grid corners
// for mesh and torus (reproducing the paper's {0, 5, 18, 23} on the 6x4
// mesh), evenly spaced nodes for ring and crossbar. Degenerate geometries
// (fewer distinct corners or nodes than k) return fewer homes.
func DefaultHomes(cfg Config, k int) []int {
	n := cfg.Nodes
	k = max(1, min(k, n))
	switch canonicalTopo(cfg.Topo) {
	case "mesh", "torus":
		w, h := squarest(n)
		homes := []int{0, w - 1, (h - 1) * w, h*w - 1}
		slices.Sort(homes)
		homes = slices.Compact(homes)
		return homes[:min(k, len(homes))]
	default:
		homes := make([]int, 0, k)
		for i := 0; i < k; i++ {
			homes = append(homes, i*n/k)
		}
		return homes
	}
}

// gridTopo is the 2D grid family: the paper's XY mesh, the torus variant
// with wraparound links, and the ring — the one-row torus (w = n, h = 1),
// whose exact half-way ties route the positive way like the torus's. Link
// ids preserve the historical mesh layout — node*4 + direction (0=+x, 1=-x,
// 2=+y, 3=-y) — so the extracted mesh is bit-for-bit the pre-topology
// network.
type gridTopo struct {
	name   string
	w, h   int
	wrap   bool
	xs, ys []int // node id → grid coordinates, so routing divides nothing
}

// A grid hop crosses one router and one link; a crossbar hop crosses the
// switch and both wire segments.
const (
	gridHop = RouterDelay + LinkDelay
	xbarHop = RouterDelay + 2*LinkDelay
)

// dirDelta maps a direction index to its coordinate step.
var dirDelta = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

func (t *gridTopo) Name() string        { return t.name }
func (t *gridTopo) Nodes() int          { return t.w * t.h }
func (t *gridTopo) NumLinks() int       { return t.w * t.h * 4 }
func (t *gridTopo) HopDelay() sim.Cycle { return gridHop }

func (t *gridTopo) xy(id NodeID) (x, y int) { return t.xs[id], t.ys[id] }
func (t *gridTopo) at(x, y int) NodeID      { return NodeID(y*t.w + x) }
func (t *gridTopo) linkID(from NodeID, dir int) int {
	return int(from)*4 + dir
}

// axisSteps returns the direction (as a dirDelta index offset: 0 for the
// positive direction, 1 for the negative) and hop count along one axis of
// length size from c to dc. The torus takes the shorter way around, breaking
// exact ties toward the positive direction.
func (t *gridTopo) axisSteps(c, dc, size int) (neg bool, steps int) {
	if dc >= c {
		fwd := dc - c
		if t.wrap && size-fwd < fwd {
			return true, size - fwd
		}
		return false, fwd
	}
	bwd := c - dc
	if t.wrap && size-bwd <= bwd {
		return false, size - bwd
	}
	return true, bwd
}

// wrapStep moves coordinate c one step (±1) along an axis of length size,
// wrapping at either end.
func wrapStep(c, step, size int) int {
	c += step
	if c == size {
		return 0
	}
	if c < 0 {
		return size - 1
	}
	return c
}

func (t *gridTopo) Hops(src, dst NodeID) int {
	sx, sy := t.xy(src)
	dx, dy := t.xy(dst)
	_, hx := t.axisSteps(sx, dx, t.w)
	_, hy := t.axisSteps(sy, dy, t.h)
	return hx + hy
}

func (t *gridTopo) Route(buf []int, src, dst NodeID) []int {
	x, y := t.xy(src)
	dx, dy := t.xy(dst)
	negX, hx := t.axisSteps(x, dx, t.w)
	for ; hx > 0; hx-- {
		dir, step := 0, 1
		if negX {
			dir, step = 1, -1
		}
		buf = append(buf, t.linkID(t.at(x, y), dir))
		x = wrapStep(x, step, t.w)
	}
	negY, hy := t.axisSteps(y, dy, t.h)
	for ; hy > 0; hy-- {
		dir, step := 2, 1
		if negY {
			dir, step = 3, -1
		}
		buf = append(buf, t.linkID(t.at(x, y), dir))
		y = wrapStep(y, step, t.h)
	}
	return buf
}

func (t *gridTopo) LinkEnds(link int) (from, to NodeID) {
	from = NodeID(link / 4)
	dir := link % 4
	x, y := t.xy(from)
	x = wrapStep(x, dirDelta[dir][0], t.w)
	y = wrapStep(y, dirDelta[dir][1], t.h)
	return from, t.at(x, y)
}

func (t *gridTopo) Describe() string {
	switch {
	case t.name == "ring":
		return fmt.Sprintf("%d-node bidirectional ring, shortest-way routing", t.w)
	case t.wrap:
		return fmt.Sprintf("%dx%d torus, wraparound XY routing", t.w, t.h)
	}
	return fmt.Sprintf("%dx%d mesh, XY routing", t.w, t.h)
}

// xbarTopo is a single-hop crossbar — the idealized-network ablation. Every
// (src, dst) pair has a dedicated directed link (id src*n + dst), so there
// is no path contention, only per-pair serialization. The one hop crosses
// the router and two wire segments (input and output side of the switch),
// so its latency — and the staged window width — is xbarHop.
type xbarTopo struct{ n int }

func (t *xbarTopo) Name() string        { return "xbar" }
func (t *xbarTopo) Nodes() int          { return t.n }
func (t *xbarTopo) NumLinks() int       { return t.n * t.n }
func (t *xbarTopo) HopDelay() sim.Cycle { return xbarHop }

func (t *xbarTopo) Hops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	return 1
}

func (t *xbarTopo) Route(buf []int, src, dst NodeID) []int {
	if src == dst {
		return buf
	}
	return append(buf, int(src)*t.n+int(dst))
}

func (t *xbarTopo) LinkEnds(link int) (from, to NodeID) {
	return NodeID(link / t.n), NodeID(link % t.n)
}

func (t *xbarTopo) Describe() string {
	return fmt.Sprintf("%d-port crossbar, single hop", t.n)
}
