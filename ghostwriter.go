// Package ghostwriter is a deterministic cycle-level simulator of the
// Ghostwriter cache coherence protocol for error-tolerant applications
// (Kao, San Miguel, Enright Jerger — ICPP Workshops 2021).
//
// It models the paper's 24-core CMP: in-order blocking cores, private L1
// caches running a MESI write-invalidate directory protocol extended with
// the approximate states GS and GI, four directory homes with L2 banks at
// the corners of a 6x4 mesh NoC, and DRAM channels — together with the
// scribble approximate-store ISA extension and the scribe d-distance
// comparator.
//
// A minimal session:
//
//	sys := ghostwriter.New(ghostwriter.Config{Protocol: ghostwriter.Ghostwriter})
//	total := sys.NewUint32Array(make([]uint32, 8), true)
//	sys.Run(4, func(t *ghostwriter.Thread) {
//		t.SetApproxDist(4)
//		for i := 0; i < 1000; i++ {
//			v := t.Load32(total.Addr(t.ID()))
//			t.Scribble32(total.Addr(t.ID()), v+1)
//		}
//	})
//	fmt.Println(sys.Stats().ServicedByGS, "stores absorbed by GS")
package ghostwriter

import (
	"fmt"
	"strings"

	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// Re-exported core types. Thread is the per-simulated-thread handle passed
// to kernels; Stats and EnergyMeter hold a run's measurements.
type (
	// Addr is a simulated physical address.
	Addr = mem.Addr
	// Thread is the simulated-thread handle (loads, stores, scribbles,
	// Compute, Barrier, SetApproxDist).
	Thread = machine.Thread
	// Kernel is the body of a simulated thread.
	Kernel = machine.Kernel
	// Stats holds a run's counters (traffic, hits/misses, GS/GI service,
	// the d-distance histogram).
	Stats = stats.Stats
	// EnergyMeter holds a run's dynamic energy, split into memory
	// hierarchy and NoC as in Fig. 9.
	EnergyMeter = energy.Meter
	// MsgClass is a coherence traffic class (GETS/GETX/UPGRADE/Data/Other).
	MsgClass = stats.MsgClass
	// WindowStats holds the window-scheduling counters of a run (windows
	// drained, merge barriers). They describe how the simulation was
	// driven, not what it computed — never part of Stats or a determinism
	// fingerprint.
	WindowStats = sim.WindowStats
)

// Protocol names a registered coherence protocol table
// (internal/coherence/proto): the value is the registry name itself, so a
// new table needs no edit here. The zero value selects Baseline.
type Protocol string

// The protocols the evaluation names. Every other registered table
// ("gw-msi", "mesi-mig", "mesi-stale", "gw-stale", "gw-resident",
// "gw-escalate") is selected the same way, through ParseProtocol or a
// Protocol conversion.
const (
	// Baseline is the unmodified MESI write-invalidate directory protocol
	// (the paper's d-distance 0 reference); scribbles escalate to stores.
	Baseline Protocol = "mesi"
	// Ghostwriter adds the GS and GI approximate states of Fig. 3.
	Ghostwriter Protocol = "ghostwriter"
	// GWNoGI is the GS-only ablation: scribbles on shared blocks may hide
	// in GS, but invalid blocks never enter GI (isolating how much of the
	// win the invalid-side state contributes).
	GWNoGI Protocol = "gw-noGI"
)

// String returns the registered protocol-table name, Baseline's for the
// zero value. It round-trips through ParseProtocol.
func (p Protocol) String() string {
	if p == "" {
		return string(Baseline)
	}
	return string(p)
}

// ParseProtocol looks a protocol-table name up in the registry, rejecting
// unknown names with an error that lists the registered alternatives.
func ParseProtocol(name string) (Protocol, error) {
	if _, ok := proto.Lookup(name); !ok {
		return "", fmt.Errorf("unknown protocol %q (registered: %s)",
			name, strings.Join(proto.Names(), ", "))
	}
	return Protocol(name), nil
}

// Config selects a simulated system. The zero value gives the paper's
// Table 1 machine with the baseline protocol.
type Config struct {
	// Protocol names the coherence protocol table (default Baseline).
	Protocol Protocol
	// Cores is the core count (default 24, as in Table 1; defaults to one
	// core per node when Topo/Nodes grow the interconnect). Threads are
	// pinned one per core.
	Cores int
	// Topo names the interconnect topology: "mesh" (Table 1 default),
	// "ring", "torus", or "xbar" (single-hop crossbar — the idealized-
	// network ablation). Empty selects the mesh.
	Topo string
	// Nodes overrides the interconnect node count (default 24); mesh and
	// torus fold it into the most square grid (64 → 8x8).
	Nodes int
	// GITimeout is the GI→I periodic timeout in cycles (default 1024).
	GITimeout uint64
	// ErrorBound caps the hidden writes absorbed during one GS/GI
	// residency (the §3.5 error-bounding extension); 0 disables.
	ErrorBound uint32
	// AdaptiveGITimeout lets each cache controller tune its GI sweep
	// period at runtime (a §3.5 auto-tuning extension): frequent
	// discarded residencies shorten it, idle sweeps lengthen it.
	AdaptiveGITimeout bool
	// ProfileSimilarity records the d-distance between every store value
	// and the value it overwrites (the Fig. 2 methodology). Off by default.
	ProfileSimilarity bool
}

// System is one simulated CMP. Build inputs with Alloc/Preload (or the
// typed array helpers), execute kernels with Run, then read results with
// the ReadCoherent accessors and inspect Stats and Energy.
type System struct {
	m   *machine.Machine
	cfg Config
}

// MachineConfig returns the machine-level configuration New builds for c:
// the paper's Table 1 defaults with c's overrides applied. It is exposed so
// callers (notably the evaluation harness) can identify the exact simulated
// machine — e.g. to derive content-addressed result-cache keys — without
// constructing a System.
func (c Config) MachineConfig() machine.Config {
	mc := machine.DefaultConfig()
	if c.Cores > 0 {
		mc.Cores = c.Cores
	}
	if c.Topo != "" || c.Nodes > 0 {
		// Non-default geometry: derive the interconnect config and re-place
		// the directory homes on it. Geometry("mesh", 24) is DefaultConfig()
		// exactly, so only genuinely new machines change here. Unknown names
		// are left for New/callers to reject: key derivation stays total.
		if geo, err := noc.Geometry(c.Topo, c.Nodes); err == nil {
			mc.NoC = geo
			mc.DirNodes = noc.DefaultHomes(geo, len(mc.DirNodes))
			if c.Cores == 0 {
				// One core per node: a grown interconnect runs fully
				// populated (capped at the protocol's sharer-set width).
				mc.Cores = min(geo.Nodes, coherence.MaxCores)
			}
		}
	}
	if c.GITimeout > 0 {
		mc.GITimeout = sim.Cycle(c.GITimeout)
	}
	// An unknown name passes through for New to reject: key derivation
	// stays total.
	mc.Protocol = c.Protocol.String()
	mc.ErrorBound = c.ErrorBound
	mc.AdaptiveGITimeout = c.AdaptiveGITimeout
	mc.ProfileSimilarity = c.ProfileSimilarity
	return mc
}

// New builds a system.
func New(cfg Config) *System {
	if err := ValidateTopology(cfg.Topo, cfg.Nodes); err != nil {
		panic("ghostwriter: " + err.Error())
	}
	cfg.Protocol = Protocol(cfg.Protocol.String())
	return &System{m: machine.New(cfg.MachineConfig()), cfg: cfg}
}

// ValidateTopology checks a topology name and node count the way New does
// (re-exported so the harness can reject bad specs with an error instead of
// a panic).
func ValidateTopology(topo string, nodes int) error {
	_, err := noc.Geometry(topo, nodes)
	return err
}

// Topologies lists the registered interconnect topology names.
func Topologies() []string { return noc.Topologies() }

// Cores returns the simulated core count.
func (s *System) Cores() int { return s.m.Config().Cores }

// BlockSize returns the cache block size in bytes.
func (s *System) BlockSize() int { return s.m.Config().L1.BlockSize }

// Protocol returns the configured protocol.
func (s *System) Protocol() Protocol { return s.cfg.Protocol }

// Alloc reserves simulated memory, packed like malloc (so false sharing
// can arise naturally from adjacent allocations).
func (s *System) Alloc(size, align int) Addr { return s.m.Alloc(size, align) }

// AllocPadded reserves block-aligned, block-padded memory — the compiler
// padding Ghostwriter applies around approximate data (§3.1).
func (s *System) AllocPadded(size int) Addr { return s.m.AllocPadded(size) }

// Preload writes input bytes into simulated DRAM before a run.
func (s *System) Preload(a Addr, data []byte) { s.m.WriteBacking(a, data) }

// PreloadUint writes one value of the given byte width into simulated DRAM.
func (s *System) PreloadUint(a Addr, width int, v uint64) {
	s.m.WriteBackingUint(a, width, v)
}

// Run executes kernel on n simulated threads (thread i pinned to core i)
// and returns the elapsed simulated cycles.
func (s *System) Run(n int, kernel Kernel) uint64 { return s.m.Run(n, kernel) }

// Stats returns the accumulated counters.
func (s *System) Stats() *Stats { return s.m.Stats() }

// ResetStats zeroes the counters and energy meter without touching the
// caches — call between a warm-up Run and the measured Run.
func (s *System) ResetStats() { s.m.ResetStats() }

// Energy returns the accumulated dynamic energy.
func (s *System) Energy() *EnergyMeter { return s.m.Energy() }

// Cycles returns the current simulated time.
func (s *System) Cycles() uint64 { return s.m.Cycles() }

// WindowStats returns the window-scheduling counters accumulated so far.
func (s *System) WindowStats() WindowStats { return s.m.WindowStats() }

// Resumes returns the coroutine switches into kernels accumulated so far:
// host-side, like WindowStats, and never part of Stats or a cached result.
func (s *System) Resumes() uint64 { return s.m.Resumes() }

// ReadCoherent returns the system-wide coherent value at a (hidden GS/GI
// updates excluded, per §3.5).
func (s *System) ReadCoherent(a Addr, width int) uint64 { return s.m.ReadCoherent(a, width) }

// ReadCoherent32 reads a coherent 32-bit value.
func (s *System) ReadCoherent32(a Addr) uint32 { return uint32(s.m.ReadCoherent(a, 4)) }

// ReadCoherent64 reads a coherent 64-bit value.
func (s *System) ReadCoherent64(a Addr) uint64 { return s.m.ReadCoherent(a, 8) }

// CheckInvariants validates the protocol's coherence invariants (used by
// tests and paranoid callers; the machine must be idle). strictData
// additionally requires Shared copies to match the L2 home byte-for-byte,
// which only holds for baseline runs.
func (s *System) CheckInvariants(strictData bool) error {
	return s.m.CheckInvariants(strictData)
}

// Machine exposes the underlying machine for advanced use (workload
// harnesses inside this module).
func (s *System) Machine() *machine.Machine { return s.m }
