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
	"ghostwriter/internal/dram"
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

	// Mesh is the interconnect configuration. The name is historical (and
	// load-bearing for cache keys): it selects any registered noc topology
	// via its Topo field, with the paper's 6x4 XY mesh as the default.
	Mesh noc.Config

	L1           cache.Config
	L1HitLatency sim.Cycle

	DirLatency sim.Cycle
	L2Latency  sim.Cycle
	DirNodes   []int // mesh nodes hosting a directory + L2 bank
	// L2PerCoreBytes sizes the shared L2 (Table 1: 128 kB per core); the
	// total is split evenly across the directory banks. 0 = unbounded.
	L2PerCoreBytes int

	DRAM dram.Config

	// Protocol names a registered coherence transition table
	// (internal/coherence/proto): "mesi", "ghostwriter", or "gw-noGI".
	// Empty selects the legacy mapping from the Ghostwriter bool —
	// "ghostwriter" when set, "mesi" otherwise — and, being omitted from
	// JSON, keeps pre-table cache keys valid: an old-format key (no
	// protocol field) means exactly that legacy rule.
	Protocol string `json:",omitempty"`
	// Ghostwriter enables the approximate protocol states; false gives the
	// baseline MESI directory protocol (the paper's d-distance 0 bars).
	// Subsumed by Protocol when that is non-empty.
	Ghostwriter bool
	// Policy selects how scribbles behave on blocks already in GS/GI
	// (PolicyResident reproduces the paper's Fig. 3; PolicyEscalate is the
	// bounded-drift ablation).
	Policy coherence.ScribblePolicy
	// GITimeout is the periodic GI→I timeout in cycles (Table 1: 1024).
	GITimeout sim.Cycle
	// ErrorBound caps hidden writes per GS/GI residency (§3.5 monitor;
	// 0 disables).
	ErrorBound uint32
	// AdaptiveGITimeout lets each L1 tune its sweep period at runtime.
	AdaptiveGITimeout bool
	// StaleLoads enables the Rengasamy-style load-side approximation.
	StaleLoads bool
	// MSI degrades the base protocol from MESI to MSI (no E state).
	MSI bool
	// MigratoryOpt enables the Stenström-style migratory-sharing
	// optimization in the baseline protocol (a §5 related-work baseline).
	MigratoryOpt bool
	// ProfileSimilarity turns on the Fig. 2 store-value d-distance profiler.
	ProfileSimilarity bool
}

// DefaultConfig mirrors Table 1 of the paper: 24 in-order cores at 1 GHz,
// private 32 kB 2-way L1s with 64 B blocks and 2-cycle hits, shared L2 at
// 10 cycles, a 6x4 mesh with 1-cycle routers and links, 4 directory
// controllers at the mesh corners, and a 1024-cycle GI timeout.
func DefaultConfig() Config {
	return Config{
		Cores:          24,
		Mesh:           noc.DefaultConfig(),
		L1:             cache.Config{SizeBytes: 32 << 10, Ways: 2, BlockSize: 64},
		L1HitLatency:   2,
		DirLatency:     6,
		L2Latency:      10,
		L2PerCoreBytes: 128 << 10,
		DirNodes:       []int{0, 5, 18, 23}, // the 6x4 mesh corners
		DRAM:           dram.DefaultConfig(),
		Ghostwriter:    false,
		GITimeout:      1024,
	}
}

// Machine is one simulated CMP instance. Build with New, load inputs with
// the allocator and WriteBacking, run kernels with Run, then read results
// with ReadCoherent and inspect Stats/Energy.
type Machine struct {
	cfg     Config
	clu     *sim.Cluster
	net     *noc.Network
	l1s     []*coherence.L1
	dirs    []*coherence.Directory
	dirNode []noc.NodeID
	backing *mem.Memory
	alloc   *mem.Allocator

	// Counters are kept per tile: each tile's components write only their
	// own meter/stats, and the window barrier writes the merge pair (link
	// arbitration). Stats()/Energy() fold everything into the merged views
	// in fixed tile order; energy is a float sum, so that order is part of
	// every fingerprint.
	tileMeters []*energy.Meter
	tileStats  []*stats.Stats
	mergeMeter *energy.Meter
	mergeSt    *stats.Stats
	meter      *energy.Meter // merged view, rebuilt by Energy()
	st         *stats.Stats  // merged view, rebuilt by Stats()
	lastCycles uint64        // end cycle of the last Run
	lastEvents uint64        // cumulative events fired as of the last Run

	threads []*Thread
	active  int
	arrived int
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
	if cfg.Cores > cfg.Mesh.NodeCount() {
		panic("machine: more cores than interconnect nodes")
	}
	if len(cfg.DirNodes) == 0 {
		panic("machine: no directory nodes")
	}
	nodes := cfg.Mesh.NodeCount()
	lookahead := cfg.Mesh.Lookahead()
	if lookahead > migrationCost {
		// The merge phase schedules migration resumes at stage-cycle +
		// migrationCost and relies on that landing at or past the horizon.
		panic(fmt.Sprintf("machine: NoC lookahead %d exceeds the migration cost %d", lookahead, migrationCost))
	}
	m := &Machine{
		cfg:        cfg,
		clu:        sim.NewCluster(nodes, lookahead, 0),
		backing:    mem.New(),
		alloc:      mem.NewAllocator(0x1_0000, cfg.L1.BlockSize),
		tileMeters: make([]*energy.Meter, nodes),
		tileStats:  make([]*stats.Stats, nodes),
		mergeMeter: &energy.Meter{},
		mergeSt:    &stats.Stats{},
		meter:      &energy.Meter{},
		st:         &stats.Stats{},
	}
	m.threadMergeFn = m.threadMerge
	for i := 0; i < nodes; i++ {
		m.tileMeters[i] = &energy.Meter{}
		m.tileStats[i] = &stats.Stats{}
	}
	m.net = noc.NewSharded(m.clu, cfg.Mesh, m.tileMeters, m.tileStats, m.mergeMeter, m.mergeSt)

	for _, n := range cfg.DirNodes {
		m.dirNode = append(m.dirNode, noc.NodeID(n))
	}
	home := func(a mem.Addr) noc.NodeID {
		return m.dirNode[int(uint64(a)/uint64(cfg.L1.BlockSize))%len(m.dirNode)]
	}

	protoName := cfg.Protocol
	if protoName == "" {
		if cfg.Ghostwriter {
			protoName = "ghostwriter"
		} else {
			protoName = "mesi"
		}
	}
	prot, ok := proto.Lookup(protoName)
	if !ok {
		panic(fmt.Sprintf("machine: unknown protocol %q (registered: %v)",
			protoName, proto.Names()))
	}

	dirCfg := coherence.DirConfig{
		Latency:      cfg.DirLatency,
		L2Latency:    cfg.L2Latency,
		BlockSize:    cfg.L1.BlockSize,
		NoExclusive:  cfg.MSI,
		MigratoryOpt: cfg.MigratoryOpt,
		Proto:        prot,
	}
	if cfg.L2PerCoreBytes > 0 {
		dirCfg.CapacityBlocks = cfg.L2PerCoreBytes * cfg.Cores / len(cfg.DirNodes) / cfg.L1.BlockSize
	}
	// One message pool for the machine: every component runs on the one
	// engine, the receiver frees, so what the directories hand out comes
	// back to where they draw from and the free list needs no locking.
	pool := &coherence.MsgPool{}
	dirAt := make(map[noc.NodeID]*coherence.Directory)
	for i, n := range m.dirNode {
		eng, meter, st := m.clu.Tile(int(n)), m.tileMeters[n], m.tileStats[n]
		ch := dram.NewChannel(eng, cfg.DRAM, m.backing, meter, st)
		d := coherence.NewDirectory(i, n, eng, m.net, dirCfg, ch, meter, st)
		d.UsePool(pool)
		m.dirs = append(m.dirs, d)
		dirAt[n] = d
	}

	l1Cfg := coherence.L1Config{
		Cache:             cfg.L1,
		HitLatency:        cfg.L1HitLatency,
		GITimeout:         cfg.GITimeout,
		Proto:             prot,
		Policy:            cfg.Policy,
		ErrorBound:        cfg.ErrorBound,
		AdaptiveGITimeout: cfg.AdaptiveGITimeout,
		StaleLoads:        cfg.StaleLoads,
		ProfileSimilarity: cfg.ProfileSimilarity,
	}
	for i := 0; i < cfg.Cores; i++ {
		l1 := coherence.NewL1(i, m.clu.Tile(i), m.net, l1Cfg, home, m.tileMeters[i], m.tileStats[i])
		l1.UsePool(pool)
		m.l1s = append(m.l1s, l1)
	}

	// One handler per mesh node dispatches to the co-located components.
	for n := 0; n < m.net.Nodes(); n++ {
		node := noc.NodeID(n)
		l1 := (*coherence.L1)(nil)
		if n < cfg.Cores {
			l1 = m.l1s[n]
		}
		d := dirAt[node]
		m.net.Register(node, func(payload any) {
			msg := payload.(*coherence.Msg)
			if msg.ToDir {
				if d == nil {
					panic(fmt.Sprintf("machine: directory message at non-home node %d", node))
				}
				d.HandleMsg(msg)
				return
			}
			if l1 == nil {
				panic(fmt.Sprintf("machine: L1 message at coreless node %d", node))
			}
			l1.HandleMsg(msg)
		})
	}
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
func (m *Machine) L1(i int) *coherence.L1 { return m.l1s[i] }

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
	out := make([]CoreUtil, len(m.threads))
	for i, t := range m.threads {
		out[i] = CoreUtil{
			Thread:        t.id,
			Core:          t.core,
			Ops:           t.ops,
			MemCycles:     uint64(t.memCycles),
			ComputeCycles: uint64(t.computeCyc),
			BarrierCycles: uint64(t.barrierCyc),
			FinishCycle:   uint64(t.finish),
		}
	}
	return out
}

// Network exposes the mesh (for link-utilization reporting).
func (m *Machine) Network() *noc.Network { return m.net }

// Stats returns the run's counters, folded from the per-tile stats (in
// tile order) plus the merge-phase stats into one view.
func (m *Machine) Stats() *stats.Stats {
	*m.st = stats.Stats{}
	for _, ts := range m.tileStats {
		m.st.Add(ts)
	}
	m.st.Add(m.mergeSt)
	m.st.Cycles = m.lastCycles
	m.st.Events = m.lastEvents
	return m.st
}

// ResetStats zeroes the measurement counters and the energy meters without
// touching any architectural state — the standard warm-up methodology:
// run a warm-up phase, reset, then measure the region of interest.
func (m *Machine) ResetStats() {
	for _, ts := range m.tileStats {
		*ts = stats.Stats{}
	}
	for _, tm := range m.tileMeters {
		*tm = energy.Meter{}
	}
	*m.mergeSt = stats.Stats{}
	*m.mergeMeter = energy.Meter{}
	*m.st = stats.Stats{}
	*m.meter = energy.Meter{}
	m.lastCycles = 0
	m.lastEvents = 0
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

// dirFor returns the home directory object for a block address.
func (m *Machine) dirFor(a mem.Addr) *coherence.Directory {
	idx := int(uint64(a)/uint64(m.cfg.L1.BlockSize)) % len(m.dirs)
	return m.dirs[idx]
}

// ReadCoherent returns the system-wide coherent value at a: the owner's
// copy if a cache owns the block, else the L2 home's copy, else DRAM.
// Hidden GS/GI updates are invisible, exactly as the paper specifies
// (§3.5: updates in approximate states are forfeited when the block
// returns to coherency).
func (m *Machine) ReadCoherent(a mem.Addr, width int) uint64 {
	base := mem.Addr(uint64(a) &^ uint64(m.cfg.L1.BlockSize-1))
	d := m.dirFor(base)
	if owner := d.Owner(base); owner >= 0 {
		arr := m.l1s[owner].Array()
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
