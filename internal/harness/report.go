package harness

import (
	"encoding/json"
	"io"
	"time"

	"ghostwriter/internal/stats"
)

// Report is the machine-readable form of one RunExperiment call, suitable
// for plotting the paper's figures with external tooling: the data series
// of the experiments it ran and the timing of the cells it submitted. A
// section whose experiment did not run is empty.
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
	// Extensions is the suite grid over the beyond-Table-2 applications.
	Extensions []SuiteRecord `json:"extensions,omitempty"`
	// Trend is the standalone input-scale trend of linear_regression.
	Trend []TrendPoint `json:"trend,omitempty"`
	// Timing records the sweep's wall clock and per-cell costs. Unlike the
	// simulation results it is not deterministic — it measures the host.
	Timing *TimingReport `json:"timing,omitempty"`
}

// TimingReport is the wall-clock accounting of one RunExperiment call.
type TimingReport struct {
	// WallMS is the end-to-end wall-clock time of the call in
	// milliseconds (cells run concurrently, so it is far less than the sum
	// of the cell times on a multi-core host).
	WallMS float64 `json:"wallMs"`
	// Simulated and CacheHits split the cells into fresh simulations and
	// memo/disk-cache hits. A call with a failed cell returns an error
	// instead of a report.
	Simulated uint64 `json:"simulated"`
	CacheHits uint64 `json:"cacheHits"`
	// SimCycles is the aggregate simulated-cycle count of the freshly
	// simulated cells; the *PerSec fields divide the fresh work by WallMS.
	// Cache hits are excluded from all three — replayed cells cost no
	// simulation time, so including them would flatter the host.
	SimCycles       uint64  `json:"simCycles,omitempty"`
	CellsPerSec     float64 `json:"cellsPerSec,omitempty"`
	SimCyclesPerSec float64 `json:"simCyclesPerSec,omitempty"`
	// Remote carries the remote-tier traffic counters when the sweep ran
	// against a gwcached server. The counters are cumulative for the
	// Runner's backend (remote traffic is not bracketed per call).
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
	// Cells lists every submitted cell in grid order with its wall-clock
	// cost; a cell two grids share (the suite and topology grids' mesh
	// cells) is listed once per submission.
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

// records flattens SuiteResults.
func records(suite []SuiteResult) []SuiteRecord {
	out := make([]SuiteRecord, 0, len(suite))
	for _, s := range suite {
		out = append(out, SuiteRecord{
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
		})
	}
	return out
}

// mark is a snapshot of a Runner's counters; timingSince reports what the
// Runner did after it. RunExperiment brackets its grids with the pair, so a
// report carries its own cells only.
type mark struct {
	at                              time.Time
	cells                           int // length of the timing log
	simulated, cacheHits, simCycles uint64
	window                          WindowSummary
}

func (r *Runner) timingMark() mark {
	r.mu.Lock()
	cells := len(r.timings)
	r.mu.Unlock()
	return mark{
		at:        time.Now(),
		cells:     cells,
		simulated: r.Simulated(),
		cacheHits: r.CacheHits(),
		simCycles: r.SimCycles(),
		window:    r.WindowSummary(),
	}
}

func (r *Runner) timingSince(m mark) *TimingReport {
	t := &TimingReport{
		WallMS:    float64(time.Since(m.at).Microseconds()) / 1000,
		Simulated: r.Simulated() - m.simulated,
		CacheHits: r.CacheHits() - m.cacheHits,
		SimCycles: r.SimCycles() - m.simCycles,
		Cells:     r.timingLog(m.cells),
	}
	if wallSec := t.WallMS / 1000; wallSec > 0 {
		t.CellsPerSec = float64(t.Simulated) / wallSec
		t.SimCyclesPerSec = float64(t.SimCycles) / wallSec
	}
	if ws := r.WindowSummary().since(m.window); ws.Cells > 0 {
		t.Window = &ws
	}
	if r.Cache != nil {
		if rs, ok := remoteStatsOf(r.Cache); ok {
			t.Remote = &rs
		}
		// Best-effort: a cache-only server, a dead server, or a dispatcher
		// with no submitted sweep all simply leave the section out.
		if ss, ok := r.Cache.(sweepStatuser); ok {
			if st, err := ss.SweepStatus(); err == nil && st.Total > 0 {
				t.Fleet = &st
			}
		}
	}
	return t
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
