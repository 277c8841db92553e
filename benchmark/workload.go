package main

import (
	"runtime"
	"time"
)

// sizes pins every workload's input size. fullSizes is what the benchmark
// measures. The constants were chosen so that a unit — one cell, one fleet
// drain, one checker exploration — takes 30–150 ms on the 2-vCPU reference
// host and a pass about half a second, so that the 10 s a run measures
// hold twenty samples of every unit: the host's quiet spells are short,
// and many short samples find them where a few long ones cannot (the
// exec'd sweep, 4 s a cold run, and the 256-node cells are as short as
// they can be made). smokeSizes is the set the unit test runs once per
// workload so the benchmark cannot rot unnoticed. Changing a full size
// invalidates every earlier result; it needs a benchmark PR and a
// -write-golden.
type sizes struct {
	Name string `json:"name"`
	// Application scales of the in-process cell workloads.
	HitsScale     int `json:"hitsScale"`
	SharingScale  int `json:"sharingScale"`
	ScribbleScale int `json:"scribbleScale"`
	TorusScale    int `json:"torusScale"`
	// priv_walk: steps per thread over a private array of WalkWords words.
	WalkSteps int `json:"walkSteps"`
	WalkWords int `json:"walkWords"`
	// Seeded trace.Random cells: ops per thread over a shared span.
	TraceRounds int `json:"traceRounds"`
	TraceSpan   int `json:"traceSpanBytes"`
	// fleet_wal submits the `all` manifest FleetCopies times over, each copy
	// under its own Config.GITimeout so every cell has a distinct key.
	FleetCopies int `json:"fleetCopies"`
	// sweep: warm replays after every cold run.
	WarmReplays int `json:"warmReplays"`
	// Probe operation counts scale with this (1 in smoke).
	ProbeScale int `json:"probeScale"`
}

var fullSizes = sizes{
	Name:      "full",
	HitsScale: 2, SharingScale: 1, ScribbleScale: 1, TorusScale: 1,
	WalkSteps: 4000, WalkWords: 1024,
	TraceRounds: 2000, TraceSpan: 4096,
	FleetCopies: 10,
	WarmReplays: 25,
	ProbeScale:  8,
}

var smokeSizes = sizes{
	Name:      "smoke",
	HitsScale: 1, SharingScale: 1, ScribbleScale: 1, TorusScale: 1,
	WalkSteps: 500, WalkWords: 1024,
	TraceRounds: 300, TraceSpan: 4096,
	FleetCopies: 2,
	WarmReplays: 2,
	ProbeScale:  1,
}

// cellThreads is the thread count of every in-process cell on the default
// mesh; torusNodes is the largest supported grid.
const (
	cellThreads = 24
	torusNodes  = 256
)

// env is what a workload runs in: where the repository and the set-up
// outputs are, the generated inputs, and how long to measure.
type env struct {
	root    string  // repository root (go.mod)
	dir     string  // this run's scratch directory, inside the checkout
	gwsweep string  // the gwsweep binary set-up built
	baseDir string  // disk cache of the pre-simulated results fleet_wal replays
	in      *inputs // seeded inputs set-up generated
	sz      sizes
	seconds float64 // how long the timed passes run; 0 = exactly one pass
	warmup  bool    // run one untimed pass first
	trace   bool    // alternate passes with spans on, then run the probes
	golden  *golden
	// record, when set (-write-golden), collects what the run observed
	// in place of comparing it with golden.
	record *golden
	tr     *tracer
	seq    int               // per-run counter for unique sub-directory names
	seen   map[string]digest // seeded cells' first digest of this run
}

// unitSample is one timing of one unit of a pass: a cell, an exec, a
// window of the fleet drain, one checker exploration. A unit keeps its ID
// from pass to pass (and may occur several times in one), so a run collects
// many samples of each and reports quietMean of them.
type unitSample struct {
	ID string
	// Busy is the part of the unit the rate metrics time: System.Run for
	// a cell, the cold exec for sweep, the whole window for fleet_wal,
	// check.Explore for checker; 0 for a unit that is only overhead. Wall
	// is the whole unit.
	Busy, Wall float64
}

// warmUnit is the ID of the unit whose samples are warm_replay_ms (sweep's
// warm execs; no other workload has a result cache in front of it).
const warmUnit = "sweep.warm"

// passResult is what one pass of a workload measured.
type passResult struct {
	Wall  float64 // the whole pass, seconds on the clock its units use
	Units []unitSample
	// Counts of the work done in the units' Busy time. Apart from which
	// cells fleet_wal's warm-up cut falls on they are deterministic.
	Memops    float64
	Cells     float64
	Schedules float64
	Mallocs   float64 // Go mallocs in this process over Busy
	// Attempted/Failed count correctness checks; Failures explains each.
	Attempted int
	Failed    int
	Failures  []string
	// Layer carries the per-layer counts and directly measured layer
	// values of this pass (filled on every pass, reported from the traced
	// ones).
	Layer map[string]float64
	// PeakKB is the peak resident set of the pass: of the process it
	// exec'd (sweep sets it) or else of this process (run fills it in).
	PeakKB float64
}

func (p *passResult) check(ok bool, format func() string) {
	p.Attempted++
	if !ok {
		p.Failed++
		p.Failures = append(p.Failures, format())
	}
}

func (p *passResult) add(name string, v float64) {
	if p.Layer == nil {
		p.Layer = map[string]float64{}
	}
	p.Layer[name] += v
}

func (p *passResult) unit(id string, busy, wall float64) {
	p.Units = append(p.Units, unitSample{ID: id, Busy: busy, Wall: wall})
}

// busy is the pass's timed region: the sum over its units.
func (p passResult) busy() float64 {
	sum := 0.0
	for _, u := range p.Units {
		sum += u.Busy
	}
	return sum
}

// workload is one named benchmark workload: pass runs it once.
type workload struct {
	Name string
	pass func(e *env) passResult
	// minPasses is how many timed passes a run makes even when the first
	// ones already used up the seconds.
	minPasses int
	// noWarmup skips the untimed first pass: sweep's cold exec is cold by
	// definition and its warm replays follow a cold one in every pass.
	noWarmup bool
	// nocProbe names the send probe noc.est_share uses (default: mesh24).
	nocProbe string
	// center reduces a unit's samples to the run's figure for it
	// (default: quietMean).
	center func(samples []float64) float64
}

// report is what one child run of one workload hands back to the parent.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Values holds the run's end-to-end figures, built from quietMean of
	// every unit's samples; Samples holds the same figures of every single
	// timed pass, for the medians and quartiles of the table.
	Values  map[string]float64   `json:"values"`
	Samples map[string][]float64 `json:"samples"`
	// Layer holds the per-layer metrics (traced run only).
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
	// Observed is filled in -write-golden mode.
	Observed *golden `json:"observed,omitempty"`
}

// rates turns the counts of a pass (or the median counts of a run) and the
// times they took into the end-to-end figures. A workload with no result
// cache in front of it has no warm replay to time: repeating it costs a
// whole pass.
func rates(memops, cells, schedules, mallocs, busy, wall, warmMS, peakKB float64) map[string]float64 {
	if warmMS == 0 {
		warmMS = wall * 1000
	}
	return map[string]float64{
		"wall_s":           wall,
		"memops_per_s":     ratio(memops, busy),
		"allocs_per_memop": ratio(mallocs, memops),
		"cells_per_s":      ratio(cells, busy),
		"schedules_per_s":  ratio(schedules, busy),
		"warm_replay_ms":   warmMS,
		"peak_rss_mb":      peakKB / 1024,
	}
}

// endToEnd is one pass's own end-to-end figures.
func (p passResult) endToEnd() map[string]float64 {
	var warm []float64
	for _, u := range p.Units {
		if u.ID == warmUnit {
			warm = append(warm, u.Wall*1000)
		}
	}
	return rates(p.Memops, p.Cells, p.Schedules, p.Mallocs, p.busy(), p.Wall, median(warm), p.PeakKB)
}

// unitTimes collects every unit's samples over the passes of a run.
type unitTimes struct {
	order      []string
	busy, wall map[string][]float64
}

func collectUnits(passes []passResult) *unitTimes {
	t := &unitTimes{busy: map[string][]float64{}, wall: map[string][]float64{}}
	for _, p := range passes {
		for _, u := range p.Units {
			if _, ok := t.wall[u.ID]; !ok {
				t.order = append(t.order, u.ID)
			}
			t.busy[u.ID] = append(t.busy[u.ID], u.Busy)
			t.wall[u.ID] = append(t.wall[u.ID], u.Wall)
		}
	}
	return t
}

// runValues builds a run's end-to-end figures: every unit contributes the
// center (quietMean, unless the workload says otherwise) of its samples,
// times how often it occurs in a pass; the peak resident set is the center
// of the passes' peaks (a collector running late only ever adds to one);
// the counts are the median pass's.
func (w workload) runValues(passes []passResult) map[string]float64 {
	center := w.center
	if center == nil {
		center = quietMean
	}
	t := collectUnits(passes)
	var busy, wall float64
	for _, id := range t.order {
		perPass := float64(len(t.wall[id])) / float64(len(passes))
		busy += perPass * center(t.busy[id])
		wall += perPass * center(t.wall[id])
	}
	peaks := make([]float64, len(passes))
	for i, p := range passes {
		peaks[i] = p.PeakKB
	}
	count := func(f func(passResult) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return median(v)
	}
	return rates(
		count(func(p passResult) float64 { return p.Memops }),
		count(func(p passResult) float64 { return p.Cells }),
		count(func(p passResult) float64 { return p.Schedules }),
		count(func(p passResult) float64 { return p.Mallocs }),
		busy, wall, center(t.wall[warmUnit])*1000, center(peaks))
}

// run executes w: one untimed warm-up pass, then timed passes until the
// seconds are used up. A traced run spends 60 % of the seconds on passes
// that alternate spans off and spans on, and the rest on the layer probes.
// End-to-end figures only ever come from the passes with spans off.
func (w workload) run(e *env) *report {
	rep := &report{Workload: w.Name, Trace: e.trace, Samples: map[string][]float64{}}
	take := func(p passResult) {
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
		rep.Failures = append(rep.Failures, p.Failures...)
	}
	if e.warmup && !w.noWarmup {
		take(w.pass(e))
	}
	budget, minPasses := e.seconds, w.minPasses
	if e.trace {
		budget, minPasses = 0.6*budget, 1
	}
	var plain, traced []passResult
	var layers []map[string]float64
	start := time.Now()
	for i := 0; ; i++ {
		tracing := e.trace && i%2 == 1
		if tracing {
			e.tr = &tracer{on: true, epoch: time.Now()}
		}
		resetPeakRSS()
		t0 := time.Now()
		p := w.pass(e)
		took := time.Since(t0).Seconds()
		if p.PeakKB == 0 {
			p.PeakKB = peakRSSKB("self")
		}
		take(p)
		if tracing {
			rep.Spans = e.tr.spans // the last traced pass's are kept
			e.tr = nil
			traced = append(traced, p)
			layers = append(layers, passLayer(p, rep.Spans))
		} else {
			plain = append(plain, p)
		}
		// Stop when the next pass would overshoot the budget by more than
		// half its length; seconds == 0 asks for exactly one pass (and one
		// traced one). A traced run ends on a traced pass.
		elapsed := time.Since(start).Seconds()
		done := e.seconds == 0 || len(plain) >= minPasses && elapsed+took/2 >= budget
		if done && (!e.trace || len(traced) == len(plain)) {
			break
		}
	}
	rep.Passes = len(plain)
	for _, p := range plain {
		for k, v := range p.endToEnd() {
			rep.Samples[k] = append(rep.Samples[k], v)
		}
	}
	rep.Values = w.runValues(plain)
	if e.trace {
		layer := medianLayer(layers)
		probes := runProbes(e, int(layer["wal.mean_record_bytes"]))
		// Spans on against spans off, over the passes that alternated.
		overhead := ratio(w.runValues(traced)["wall_s"], rep.Values["wall_s"]) - 1
		rep.Layer = w.layerMetrics(layer, probes, overhead)
	}
	return rep
}

// layerMetrics completes the per-layer metrics of a traced run: what its
// traced passes measured, the probes' unit costs, the tracing overhead,
// and the attribution built from them.
func (w workload) layerMetrics(layer, probes map[string]float64, overhead float64) map[string]float64 {
	for k, v := range probes {
		layer[k] = v
	}
	layer["trace_overhead_frac"] = overhead
	nocProbe := w.nocProbe
	if nocProbe == "" {
		nocProbe = "noc.send_ns_per_msg.mesh24"
	}
	attribute(layer, nocProbe)
	return layer
}

// passLayer is the per-layer metrics one traced pass measured: the counts
// and direct measurements it recorded and the self time of its spans.
func passLayer(p passResult, spans []span) map[string]float64 {
	layer := map[string]float64{}
	for k, v := range p.Layer {
		layer[k] = v
	}
	for name, self := range selfSeconds(spans) {
		if spanMetrics[name] {
			layer[name+"_s"] = self
		}
	}
	return layer
}

// medianLayer combines the traced passes of a run: per metric, the median
// over the passes — the value itself for a count, which repeats, and a
// steadier figure than any single pass's for a time.
func medianLayer(layers []map[string]float64) map[string]float64 {
	samples := map[string][]float64{}
	for _, l := range layers {
		for k, v := range l {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	return out
}

// spanMetrics names the spans whose summed self time is reported as the
// per-layer metric <span name>_s.
var spanMetrics = map[string]bool{
	"workloads.new": true, "workloads.prepare": true, "workloads.verify": true,
	"machine.new": true, "machine.run": true,
	"harness.render": true, "check.explore": true,
}

// mallocs reads the process-wide malloc counter.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}
