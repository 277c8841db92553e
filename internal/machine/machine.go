// Package machine assembles the simulated CMP of Table 1: in-order blocking
// cores, private L1s with the Ghostwriter protocol, four directory homes
// with L2 banks at the mesh corners, the interconnect (the paper's 6x4 mesh
// by default; any registered noc topology), and per-home DRAM channels. It
// also provides the deterministic thread-execution harness that workload
// kernels run on.
package machine

import (
	"fmt"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// Config selects the simulated system. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Cores int // number of cores (= interconnect nodes used for L1s)

	// NoC is the interconnect configuration: any registered noc topology,
	// selected by its Topo field, with the paper's 6x4 XY mesh as the
	// default.
	NoC noc.Config

	L1       cache.Config
	DirNodes []int // mesh nodes hosting a directory + L2 bank
	// L2PerCoreBytes sizes the shared L2 (Table 1: 128 kB per core); the
	// total is split evenly across the directory banks. 0 = unbounded.
	L2PerCoreBytes int

	// Protocol names a registered coherence transition table
	// (internal/coherence/proto.Names): "mesi" is the baseline of the
	// paper's d-distance 0 bars, "ghostwriter" adds GS and GI, and every
	// protocol variant is a table of its own.
	Protocol string
	// GITimeout is the periodic GI→I timeout in cycles (Table 1: 1024).
	GITimeout sim.Cycle
	// ErrorBound caps hidden writes per GS/GI residency (§3.5 monitor;
	// 0 disables).
	ErrorBound uint32
	// AdaptiveGITimeout lets each L1 tune its sweep period at runtime.
	AdaptiveGITimeout bool
	// ProfileSimilarity turns on the Fig. 2 store-value d-distance profiler.
	ProfileSimilarity bool
}

// DefaultConfig mirrors Table 1 of the paper: 24 in-order cores at 1 GHz,
// private 32 kB 2-way L1s with 64 B blocks, a 6x4 mesh, 4 directory
// controllers at the mesh corners, and a 1024-cycle GI timeout. Table 1's
// fixed timing is constants in noc, coherence and dram.
func DefaultConfig() Config {
	return Config{
		Cores:          24,
		NoC:            noc.DefaultConfig(),
		L1:             cache.Config{SizeBytes: 32 << 10, Ways: 2, BlockSize: 64},
		L2PerCoreBytes: 128 << 10,
		DirNodes:       []int{0, 5, 18, 23}, // the 6x4 mesh corners
		Protocol:       "mesi",
		GITimeout:      1024,
	}
}

// Migration resumes land migrationCost after their stage cycle, which must
// reach the window horizon: the widest lookahead, the crossbar hop, may not
// exceed it, or this constant expression underflows and the build fails.
const _ = migrationCost - (noc.RouterDelay + 2*noc.LinkDelay)

// Machine is one simulated CMP instance. Build with New, load inputs with
// the allocator and WriteBacking, run kernels with Run, then read results
// with ReadCoherent and inspect Stats/Energy.
type Machine struct {
	cfg     Config
	clu     *sim.Cluster
	eng     *sim.Engine // the cluster's one engine, which every component schedules on
	net     *noc.Network
	fab     *coherence.Fabric  // the L1s, directories and DRAM channels
	sweep   *coherence.Sweeper // the GI timeout of every L1
	backing *mem.Memory
	alloc   *mem.Allocator

	// Every component counts into the one st. Energy stays per tile: tiles
	// charge their own meters, the network charges mergeMeter (router and
	// link traversals), and Energy() folds them in tile order. Energy is a
	// float sum and a 0.4 pJ scribe charge rounds differently in another
	// order, so golden.json's last-bit energyPJ pins that order.
	st         *stats.Stats
	tileMeters []*energy.Meter
	mergeMeter *energy.Meter
	meter      *energy.Meter // merged view, rebuilt by Energy()

	workers []*worker  // the running kernels' workers, empty between Runs
	report  []CoreUtil // the last Run's per-thread accounting
	active  int
	arrived int
	resumes uint64 // coroutine switches into kernels, summed over finished Runs
	// threadMergeFn is m.threadMerge bound once: evaluating the method value
	// at every Stage call would allocate a closure per barrier, migration
	// and thread exit.
	threadMergeFn sim.StagedHandler
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.Cores > coherence.MaxCores {
		panic(fmt.Sprintf("machine: unsupported core count %d", cfg.Cores))
	}
	nodes := cfg.NoC.Nodes
	if cfg.Cores > nodes {
		panic("machine: more cores than interconnect nodes")
	}
	if len(cfg.DirNodes) == 0 {
		panic("machine: no directory nodes")
	}
	m := &Machine{
		cfg:        cfg,
		clu:        sim.NewCluster(nodes, cfg.NoC.Lookahead(), 0),
		backing:    mem.New(),
		alloc:      mem.NewAllocator(0x1_0000, cfg.L1.BlockSize),
		st:         &stats.Stats{},
		tileMeters: make([]*energy.Meter, nodes),
		mergeMeter: &energy.Meter{},
		meter:      &energy.Meter{},
	}
	m.eng = m.clu.Tile(0)
	m.threadMergeFn = m.threadMerge
	for i := range m.tileMeters {
		m.tileMeters[i] = &energy.Meter{}
	}
	m.net = noc.NewSharded(m.clu, cfg.NoC, nil, nil, m.mergeMeter, m.st)

	prot, ok := proto.Lookup(cfg.Protocol)
	if !ok {
		panic(fmt.Sprintf("machine: unknown protocol %q (registered: %v)",
			cfg.Protocol, proto.Names()))
	}
	m.fab = coherence.NewFabric(m.eng, m.net, m.backing, m.tileMeters, m.st, coherence.FabricConfig{
		Cores:    cfg.Cores,
		DirNodes: cfg.DirNodes,
		Proto:    prot,
		L1: coherence.L1Config{
			Cache:             cfg.L1,
			GITimeout:         cfg.GITimeout,
			ErrorBound:        cfg.ErrorBound,
			AdaptiveGITimeout: cfg.AdaptiveGITimeout,
			ProfileSimilarity: cfg.ProfileSimilarity,
		},
		Dir: coherence.DirConfig{CapacityBlocks: cfg.L2PerCoreBytes * cfg.Cores / len(cfg.DirNodes) / cfg.L1.BlockSize},
	})
	m.sweep = coherence.NewSweeper(m.eng, m.fab.L1s)
	m.sweep.AfterVisit = m.sweepVisited
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Alloc reserves simulated memory (packed, like malloc).
func (m *Machine) Alloc(size, align int) mem.Addr { return m.alloc.Alloc(size, align) }

// AllocPadded reserves block-aligned, block-padded simulated memory (the
// compiler padding around approximate regions, §3.1).
func (m *Machine) AllocPadded(size int) mem.Addr { return m.alloc.AllocPadded(size) }

// WriteBacking preloads input data into simulated DRAM before a run.
func (m *Machine) WriteBacking(a mem.Addr, data []byte) { m.backing.Write(a, data) }

// WriteBackingUint preloads one value into simulated DRAM.
func (m *Machine) WriteBackingUint(a mem.Addr, width int, v uint64) {
	m.backing.WriteUint(a, width, v)
}

// L1 returns core i's cache controller (used by tests and the invariant
// checker to inspect protocol state).
func (m *Machine) L1(i int) *coherence.L1 { return m.fab.L1s[i] }

// CoreUtil is one thread's utilization breakdown over the last Run.
type CoreUtil struct {
	Thread int
	Core   int
	// Ops is the number of memory operations the thread issued.
	Ops uint64
	// MemCycles is the time spent in (or waiting on) the memory system.
	MemCycles uint64
	// ComputeCycles is the charged non-memory work.
	ComputeCycles uint64
	// BarrierCycles is the time spent waiting at barriers.
	BarrierCycles uint64
	// FinishCycle is the cycle the thread completed.
	FinishCycle uint64
}

// CoreReport returns each thread's utilization breakdown for the last Run —
// where the time went: memory stalls, compute, or barrier waits. (The three
// buckets need not sum to the wall time: issue gaps and migration costs are
// unattributed.)
func (m *Machine) CoreReport() []CoreUtil {
	return append(make([]CoreUtil, 0, len(m.report)), m.report...)
}

// Network exposes the mesh (for link-utilization reporting).
func (m *Machine) Network() *noc.Network { return m.net }

// Stats returns the run's counters. Run stamps Cycles with its end cycle
// and Events with the events fired since construction.
func (m *Machine) Stats() *stats.Stats { return m.st }

// ResetStats zeroes the measurement counters and the energy meters without
// touching any architectural state — the standard warm-up methodology:
// run a warm-up phase, reset, then measure the region of interest.
func (m *Machine) ResetStats() {
	*m.st = stats.Stats{}
	for _, tm := range m.tileMeters {
		*tm = energy.Meter{}
	}
	*m.mergeMeter = energy.Meter{}
	*m.meter = energy.Meter{}
}

// Energy returns the run's energy meter, folded from the per-tile meters
// (in tile order) plus the merge-phase meter. Floating-point accumulation
// order is therefore fixed, keeping the joules deterministic.
func (m *Machine) Energy() *energy.Meter {
	*m.meter = energy.Meter{}
	for _, tm := range m.tileMeters {
		m.meter.Add(tm)
	}
	m.meter.Add(m.mergeMeter)
	return m.meter
}

// Cycles returns the current simulated time.
func (m *Machine) Cycles() uint64 { return uint64(m.clu.Now()) }

// WindowStats returns the cluster's window-scheduling counters (windows
// drained, merge barriers), cumulative since construction. They describe
// how the run was driven, not what it computed, so they must never enter
// Stats, a fingerprint, or a cached result.
func (m *Machine) WindowStats() sim.WindowStats { return m.clu.WindowStats() }

// Resumes returns the number of coroutine switches into kernels over every
// Run since construction: the kernel↔engine handoffs the host paid for.
// Like WindowStats it describes how the run was driven, not what it
// computed, so it must never enter Stats, a fingerprint, or a cached result.
func (m *Machine) Resumes() uint64 { return m.resumes }

// ReadCoherent returns the system-wide coherent value at a: the owner's
// copy if a cache owns the block, else the L2 home's copy, else DRAM.
// Hidden GS/GI updates are invisible, exactly as the paper specifies
// (§3.5: updates in approximate states are forfeited when the block
// returns to coherency).
func (m *Machine) ReadCoherent(a mem.Addr, width int) uint64 {
	base := mem.Addr(uint64(a) &^ uint64(m.cfg.L1.BlockSize-1))
	d := m.fab.Home(base)
	if owner := d.Owner(base); owner >= 0 {
		arr := m.fab.L1s[owner].Array()
		if b := arr.Lookup(base); b != nil &&
			(b.State == cache.Modified || b.State == cache.Exclusive || b.State == cache.EVA) {
			return b.ReadWord(arr.Offset(a), width)
		}
	}
	if data, ok := d.Peek(base); ok {
		return mem.DecodeUint(data[int(uint64(a)-uint64(base)) : int(uint64(a)-uint64(base))+width])
	}
	return m.backing.ReadUint(a, width)
}
