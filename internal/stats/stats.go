// Package stats collects the simulator's measurement counters: coherence
// traffic by message class (Fig. 8), hit/miss and GS/GI service accounting
// (Fig. 7), NoC flit-hop counts, and the store value-similarity profile that
// reproduces Fig. 2 of the paper.
package stats

// MsgClass buckets coherence messages the way Fig. 8 of the paper does.
type MsgClass int

// Message classes. Other covers invalidations, acks, and put/eviction
// control traffic.
const (
	MsgGETS MsgClass = iota
	MsgGETX
	MsgUPGRADE
	MsgData
	MsgOther
	numMsgClasses
)

// String returns the paper's label for the class.
func (c MsgClass) String() string {
	switch c {
	case MsgGETS:
		return "GETS"
	case MsgGETX:
		return "GETX"
	case MsgUPGRADE:
		return "UPGRADE"
	case MsgData:
		return "Data"
	case MsgOther:
		return "Other"
	}
	return "?"
}

// MsgClasses lists all classes in display order.
func MsgClasses() []MsgClass {
	return []MsgClass{MsgGETS, MsgGETX, MsgUPGRADE, MsgData, MsgOther}
}

// Stats accumulates counters for one simulation run. The zero value is ready
// to use.
type Stats struct {
	// Cycles is the total simulated execution time (set by the machine at
	// the end of a run).
	Cycles uint64

	// Events is the total number of discrete events the engine fired over
	// the run, drain included (set by the machine; the events/sec
	// denominator of throughput figures and part of every fingerprint).
	Events uint64

	// Msgs counts coherence messages injected into the NoC, by class.
	Msgs [numMsgClasses]uint64

	// FlitHops counts flit×hop products (the NoC energy driver).
	FlitHops uint64

	// Core-side access counters.
	Loads, Stores, Scribbles uint64

	// L1 outcomes.
	L1LoadHits, L1LoadMisses   uint64
	L1StoreHits, L1StoreMisses uint64

	// Fig. 7 numerators and denominators. StoresOnS counts stores (of any
	// flavour) arriving at a block in S, which in baseline MESI would all
	// stall on an UPGRADE; ServicedByGS counts those absorbed by a scribble
	// entering or hitting GS. StoresOnI / ServicedByGI are the analogous
	// counters for invalid blocks (tag present).
	StoresOnS, ServicedByGS uint64
	StoresOnI, ServicedByGI uint64

	// Transitions into the approximate states.
	GSEntries, GIEntries uint64
	// GI blocks flushed back to I by the periodic timeout, and GS blocks
	// invalidated by remote stores.
	GITimeouts, GSInvalidations uint64
	// Scribbles that failed the d-distance check and fell back to the
	// conventional protocol.
	ScribbleFallbacks uint64
	// Hidden writes rejected by the §3.5 error-bound monitor, forcing an
	// escalation to the conventional protocol (0 unless a bound is set).
	BoundEscalations uint64
	// StaleLoadHits counts loads served from Invalid blocks' stale data
	// under the Rengasamy-style stale-load extension (§5 related work).
	StaleLoadHits uint64

	// Component access counters (the memory-hierarchy energy drivers).
	L1Accesses, L2Accesses, DirAccesses, DRAMAccesses uint64
	// L2Recalls counts L2-capacity evictions that had to recall L1 copies
	// or write a victim line back to DRAM.
	L2Recalls uint64

	// DistHist[d] counts stores whose new value was exactly d-distance from
	// the value being overwritten (Fig. 2). Index 64 buckets distances ≥ 64.
	DistHist [65]uint64
}

// AddMsg records one injected coherence message of class c.
func (s *Stats) AddMsg(c MsgClass) { s.Msgs[c]++ }

// TotalMsgs returns the total coherence message count.
func (s *Stats) TotalMsgs() uint64 {
	var t uint64
	for _, v := range s.Msgs {
		t += v
	}
	return t
}

// RecordDistance adds one sample to the value-similarity histogram.
func (s *Stats) RecordDistance(d int) {
	if d < 0 {
		d = 0
	}
	if d > 64 {
		d = 64
	}
	s.DistHist[d]++
}

// DistCDF returns, for each d in [0, 64], the fraction of profiled stores
// whose overwritten value was within d-distance (the Fig. 2 curve). The
// second result is the number of samples; with zero samples the CDF is all
// zeros.
func (s *Stats) DistCDF() ([65]float64, uint64) {
	var cdf [65]float64
	var total uint64
	for _, v := range s.DistHist {
		total += v
	}
	if total == 0 {
		return cdf, 0
	}
	var run uint64
	for d, v := range s.DistHist {
		run += v
		cdf[d] = float64(run) / float64(total)
	}
	return cdf, total
}

// Add accumulates o into s (used to aggregate per-component stats).
func (s *Stats) Add(o *Stats) {
	s.Cycles += o.Cycles
	s.Events += o.Events
	for i := range s.Msgs {
		s.Msgs[i] += o.Msgs[i]
	}
	s.FlitHops += o.FlitHops
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Scribbles += o.Scribbles
	s.L1LoadHits += o.L1LoadHits
	s.L1LoadMisses += o.L1LoadMisses
	s.L1StoreHits += o.L1StoreHits
	s.L1StoreMisses += o.L1StoreMisses
	s.StoresOnS += o.StoresOnS
	s.ServicedByGS += o.ServicedByGS
	s.StoresOnI += o.StoresOnI
	s.ServicedByGI += o.ServicedByGI
	s.GSEntries += o.GSEntries
	s.GIEntries += o.GIEntries
	s.GITimeouts += o.GITimeouts
	s.GSInvalidations += o.GSInvalidations
	s.ScribbleFallbacks += o.ScribbleFallbacks
	s.BoundEscalations += o.BoundEscalations
	s.StaleLoadHits += o.StaleLoadHits
	s.L2Recalls += o.L2Recalls
	s.L1Accesses += o.L1Accesses
	s.L2Accesses += o.L2Accesses
	s.DirAccesses += o.DirAccesses
	s.DRAMAccesses += o.DRAMAccesses
	for i := range s.DistHist {
		s.DistHist[i] += o.DistHist[i]
	}
}
