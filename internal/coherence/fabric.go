package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/dram"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// FabricConfig selects what NewFabric wires: the cores (L1 i at node i),
// the nodes hosting a directory with its L2 bank and DRAM channel, and the
// one protocol table every controller interprets (required: machine.New
// resolves the name, the checker holds a table). The directory's block
// size is the L1's.
type FabricConfig struct {
	Cores    int
	DirNodes []int
	Proto    *proto.Protocol
	L1       L1Config
	Dir      DirConfig
}

// Fabric is the coherent memory system of one machine: its L1s, its
// directories, the message pool they share and the delivery handler at
// every interconnect node. machine.New, the model checker and the protocol
// tests all build their controllers here.
type Fabric struct {
	L1s  []*L1
	Dirs []*Directory // in DirNodes order
	// pool is the controllers' one message pool: they all run on the one
	// engine and the receiver frees, so the free list needs no locking.
	pool  MsgPool
	shift uint // log2 of the block size (cache.New checks it is a power of two)
}

// NewFabric builds the controllers of cfg on eng and net and registers a
// handler at every node of net. Each directory's DRAM channel reads and
// writes back, and every component counts into st; meters[n] is the energy
// meter of the tile at node n. A message that reaches a node without the
// controller it is for panics, naming the node.
func NewFabric(eng *sim.Engine, net *noc.Network, back *mem.Memory, meters []*energy.Meter,
	st *stats.Stats, cfg FabricConfig) *Fabric {
	f := &Fabric{shift: uint(bits.TrailingZeros(uint(cfg.L1.Cache.BlockSize)))}
	for i, node := range cfg.DirNodes {
		ch := dram.NewChannel(eng, back, meters[node], st)
		f.Dirs = append(f.Dirs, newDirectory(i, noc.NodeID(node), eng, net, cfg, ch, meters[node], st, &f.pool))
	}
	for i := 0; i < cfg.Cores; i++ {
		f.L1s = append(f.L1s, newL1(i, eng, net, cfg, f, meters[i], st))
	}
	for n := 0; n < net.Nodes(); n++ {
		node := noc.NodeID(n)
		var l1 *L1
		if n < cfg.Cores {
			l1 = f.L1s[n]
		}
		var d *Directory
		if i := slices.Index(cfg.DirNodes, n); i >= 0 {
			d = f.Dirs[i]
		}
		net.Register(node, func(payload any) {
			msg := payload.(*Msg)
			if msg.ToDir {
				if d == nil {
					panic(fmt.Sprintf("coherence: directory message at non-home node %d", node))
				}
				d.HandleMsg(msg)
				return
			}
			if l1 == nil {
				panic(fmt.Sprintf("coherence: L1 message at coreless node %d", node))
			}
			l1.HandleMsg(msg)
		})
	}
	return f
}

// Home returns the home directory of the block holding a: blocks
// interleave across the directories, and the home index is a mask when
// their count is a power of two.
func (f *Fabric) Home(a mem.Addr) *Directory {
	b, n := uint64(a)>>f.shift, uint64(len(f.Dirs))
	if n&(n-1) == 0 {
		return f.Dirs[b&(n-1)]
	}
	return f.Dirs[b%n]
}

// Quiesced reports whether no core operation or directory transaction is in
// flight (the state in which invariants are meaningful).
func (f *Fabric) Quiesced() bool {
	for _, l := range f.L1s {
		if l.Busy() {
			return false
		}
	}
	for _, d := range f.Dirs {
		if !d.Quiesced() {
			return false
		}
	}
	return true
}
