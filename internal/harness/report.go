package harness

import (
	"encoding/json"
	"io"
	"time"

	"ghostwriter/internal/stats"
)

// Report is the machine-readable form of a full evaluation run, suitable
// for plotting the paper's figures with external tooling.
type Report struct {
	Options Options       `json:"options"`
	Jobs    int           `json:"jobs,omitempty"` // worker-pool size that produced the report
	Fig1    []Fig1Point   `json:"fig1,omitempty"`
	Fig2    []Fig2Row     `json:"fig2,omitempty"`
	Suite   []SuiteRecord `json:"suite,omitempty"` // feeds Figs. 7-11
	Fig12   []Fig12Point  `json:"fig12,omitempty"`
	// Protocols is the (application × protocol-table) ablation grid.
	Protocols []ProtocolRow `json:"protocols,omitempty"`
	// Topologies is the (application × interconnect-topology) ablation grid.
	Topologies []TopologyRow `json:"topologies,omitempty"`
	// Timing records the sweep's wall clock and per-cell costs. Unlike the
	// simulation results it is not deterministic — it measures the host.
	Timing *TimingReport `json:"timing,omitempty"`
}

// TimingReport is the wall-clock accounting of one report build.
type TimingReport struct {
	// WallMS is the end-to-end wall-clock time of the build in
	// milliseconds (cells run concurrently, so it is far less than the sum
	// of the cell times on a multi-core host).
	WallMS float64 `json:"wallMs"`
	// Simulated and CacheHits split the cells into fresh simulations and
	// memo/disk-cache hits; Failures counts cells that errored or panicked.
	Simulated uint64 `json:"simulated"`
	CacheHits uint64 `json:"cacheHits"`
	Failures  uint64 `json:"failures,omitempty"`
	// SimCycles is the aggregate simulated-cycle count of the freshly
	// simulated cells; the *PerSec fields divide the fresh work by WallMS.
	// Cache hits are excluded from all three — replayed cells cost no
	// simulation time, so including them would flatter the host.
	SimCycles       uint64  `json:"simCycles,omitempty"`
	CellsPerSec     float64 `json:"cellsPerSec,omitempty"`
	SimCyclesPerSec float64 `json:"simCyclesPerSec,omitempty"`
	// Remote carries the remote-tier traffic counters when the sweep ran
	// against a gwcached server. The counters are cumulative for the
	// Runner's backend (remote traffic is not bracketed per report build).
	Remote *RemoteStats `json:"remote,omitempty"`
	// Fleet carries the dispatch counters of the server-side sweep when the
	// backend fronts a dispatch-enabled gwcached with a submitted manifest —
	// the record that this report was assembled from fleet-produced cells,
	// including how many crashed leases the dispatcher reclaimed.
	Fleet *SweepStatus `json:"fleet,omitempty"`
	// Window carries the window-occupancy aggregates of the freshly
	// simulated cells (windows drained, merge barriers, events per window)
	// — the "why" behind the throughput numbers above. Like
	// everything else in TimingReport it measures the host, not the
	// simulation, and is absent when every cell was a cache hit.
	Window *WindowSummary `json:"window,omitempty"`
	// Cells lists every cell in grid order with its wall-clock cost.
	Cells []CellTiming `json:"cells,omitempty"`
}

// SuiteRecord flattens one application's three runs into plottable fields.
type SuiteRecord struct {
	App             string       `json:"app"`
	Metric          string       `json:"metric"`
	GSPct4          float64      `json:"gsPct4"`
	GSPct8          float64      `json:"gsPct8"`
	GIPct4          float64      `json:"giPct4"`
	GIPct8          float64      `json:"giPct8"`
	TrafficNorm4    float64      `json:"trafficNorm4"`
	TrafficNorm8    float64      `json:"trafficNorm8"`
	EnergySaved4Pct float64      `json:"energySaved4Pct"`
	EnergySaved8Pct float64      `json:"energySaved8Pct"`
	Speedup4Pct     float64      `json:"speedup4Pct"`
	Speedup8Pct     float64      `json:"speedup8Pct"`
	Error4Pct       float64      `json:"error4Pct"`
	Error8Pct       float64      `json:"error8Pct"`
	BaseCycles      uint64       `json:"baseCycles"`
	Msgs            TrafficSplit `json:"msgs"`
}

// TrafficSplit is the Fig. 8 per-class message breakdown for d ∈ {0,4,8}.
type TrafficSplit struct {
	Base map[string]uint64 `json:"base"`
	D4   map[string]uint64 `json:"d4"`
	D8   map[string]uint64 `json:"d8"`
}

// classMap converts a stats message array into a named map.
func classMap(s *stats.Stats) map[string]uint64 {
	out := make(map[string]uint64, 5)
	for _, c := range stats.MsgClasses() {
		out[c.String()] = s.Msgs[c]
	}
	return out
}

// record flattens one SuiteResult.
func record(s SuiteResult) SuiteRecord {
	return SuiteRecord{
		App:             s.App,
		Metric:          s.Base.Metric.String(),
		GSPct4:          s.D4.GSFrac() * 100,
		GSPct8:          s.D8.GSFrac() * 100,
		GIPct4:          s.D4.GIFrac() * 100,
		GIPct8:          s.D8.GIFrac() * 100,
		TrafficNorm4:    s.TrafficNorm4,
		TrafficNorm8:    s.TrafficNorm8,
		EnergySaved4Pct: s.EnergySavedPct4,
		EnergySaved8Pct: s.EnergySavedPct8,
		Speedup4Pct:     s.SpeedupPct4,
		Speedup8Pct:     s.SpeedupPct8,
		Error4Pct:       s.D4.ErrorPct,
		Error8Pct:       s.D8.ErrorPct,
		BaseCycles:      s.Base.Cycles,
		Msgs: TrafficSplit{
			Base: classMap(&s.Base.Stats),
			D4:   classMap(&s.D4.Stats),
			D8:   classMap(&s.D8.Stats),
		},
	}
}

// BuildReport runs the full evaluation and assembles the report. Cells
// already resolved by this Runner (or present in its disk cache) are reused
// rather than resimulated, so building a report right after printing the
// text evaluation — the `gwsweep -exp all -json` path — costs no extra
// simulations.
func (r *Runner) BuildReport(opt Options) (*Report, error) {
	var (
		start      = time.Now()
		mark       = r.timingMark()
		simBefore  = r.Simulated()
		hitBefore  = r.CacheHits()
		failBefore = r.Failures()
		cycBefore  = r.SimCycles()
		winBefore  = r.WindowSummary()
	)
	rep := &Report{Options: opt, Jobs: r.workers()}
	var err error
	if rep.Fig1, err = r.Fig1(io.Discard, opt); err != nil {
		return nil, err
	}
	if rep.Fig2, err = r.Fig2(io.Discard, opt); err != nil {
		return nil, err
	}
	suite, err := r.RunSuite(opt)
	if err != nil {
		return nil, err
	}
	for _, s := range suite {
		rep.Suite = append(rep.Suite, record(s))
	}
	if rep.Fig12, err = r.Fig12(io.Discard, opt); err != nil {
		return nil, err
	}
	if rep.Protocols, err = r.ProtocolGrid(io.Discard, opt); err != nil {
		return nil, err
	}
	if rep.Topologies, err = r.TopologyGrid(io.Discard, opt); err != nil {
		return nil, err
	}
	rep.Timing = &TimingReport{
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
		Simulated: r.Simulated() - simBefore,
		CacheHits: r.CacheHits() - hitBefore,
		Failures:  r.Failures() - failBefore,
		SimCycles: r.SimCycles() - cycBefore,
		Cells:     r.timingsSince(mark),
	}
	if wallSec := rep.Timing.WallMS / 1000; wallSec > 0 {
		rep.Timing.CellsPerSec = float64(rep.Timing.Simulated) / wallSec
		rep.Timing.SimCyclesPerSec = float64(rep.Timing.SimCycles) / wallSec
	}
	if ws := r.WindowSummary().since(winBefore); ws.Cells > 0 {
		rep.Timing.Window = &ws
	}
	if r.Cache != nil {
		if rs, ok := remoteStatsOf(r.Cache); ok {
			rep.Timing.Remote = &rs
		}
		// Best-effort: a cache-only server, a dead server, or a dispatcher
		// with no submitted sweep all simply leave the section out.
		if ss, ok := r.Cache.(sweepStatuser); ok {
			if st, err := ss.SweepStatus(); err == nil && st.Total > 0 {
				rep.Timing.Fleet = &st
			}
		}
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
