package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	ghostwriter "ghostwriter"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(s, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize(1,2,4) = %+v", s)
	}
	if s := summarize([]float64{3}); s.Median != 3 || s.spread() != 0 {
		t.Errorf("summarize(3) = %+v", s)
	}
}

func TestQuietMean(t *testing.T) {
	// The mean of the fastest quarter, at least one sample.
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{5}, 5}, {[]float64{9, 4, 7}, 4},
		{[]float64{8, 1, 6, 3, 7, 2, 5, 4}, 1.5},
		{[]float64{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2},
	} {
		if got := quietMean(c.in); got != c.want {
			t.Errorf("quietMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunValues(t *testing.T) {
	// Two units, one of them twice per pass; a slow pass must not move the
	// run's figures, and the counts are the median pass's.
	pass := func(slow float64) passResult {
		p := passResult{Memops: 1000, Cells: 2, Schedules: 48, Mallocs: 500}
		p.unit("a", 1*slow, 2*slow)
		p.unit("b", 0, 0.25*slow)
		p.unit("b", 0, 0.25*slow)
		p.Wall = 2.5 * slow
		return p
	}
	passes := []passResult{pass(1), pass(3), pass(1), pass(1.5)}
	v := workload{}.runValues(passes)
	if v["wall_s"] != 2.5 || v["memops_per_s"] != 1000 || v["cells_per_s"] != 2 ||
		v["schedules_per_s"] != 48 || v["allocs_per_memop"] != 0.5 || v["warm_replay_ms"] != 2500 {
		t.Errorf("runValues = %v", v)
	}
	if one := passes[1].endToEnd(); one["wall_s"] != 7.5 || one["memops_per_s"] != 1000.0/3 {
		t.Errorf("a single pass's figures = %v", one)
	}
	// A warm unit's samples are warm_replay_ms.
	for i := range passes {
		passes[i].unit(warmUnit, 0, 0.010*float64(i+1))
	}
	if v := (workload{}).runValues(passes); math.Abs(v["warm_replay_ms"]-10) > 1e-9 {
		t.Errorf("warm_replay_ms = %v, want 10", v["warm_replay_ms"])
	}
	// A workload may ask for another center than the fast quarter.
	if v := (workload{center: median}).runValues(passes); math.Abs(v["warm_replay_ms"]-25) > 1e-9 {
		t.Errorf("warm_replay_ms with the median = %v, want 25", v["warm_replay_ms"])
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A parent with two overlapping children and one disjoint child: the
	// overlap is subtracted once, and a child outliving its parent is
	// clipped to it.
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},
		{Name: "other", Start: 60, End: 120, Parent: 0},
		{Name: "leaf", Start: 12, End: 17, Parent: 1},
	}
	for i := range spans {
		spans[i].Start *= 1e9
		spans[i].End *= 1e9
	}
	got := selfSeconds(spans)
	want := map[string]float64{"parent": 100 - 40 - 40, "child": 15 + 30, "other": 60, "leaf": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfSeconds = %v, want %v", got, want)
	}

	tr := &tracer{on: true, epoch: time.Now()}
	root := tr.begin("pass", "", -1)
	tr.add("machine.run", "c", root, tr.epoch, tr.epoch.Add(time.Second))
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].End != 1e9 {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	var off *tracer
	if id := off.begin("x", "", -1); id != -1 || off.add("x", "", -1, time.Now(), time.Now()) != -1 {
		t.Error("an off tracer must record nothing")
	}
	off.end(0)
}

func TestFailedOverAttempted(t *testing.T) {
	var p passResult
	p.check(true, func() string { return "unused" })
	p.check(false, func() string { return "cell x: boom" })
	p.check(false, func() string { return "cell y: bang" })
	if p.Attempted != 3 || p.Failed != 2 || len(p.Failures) != 2 {
		t.Fatalf("pass accounting: %+v", p)
	}

	spec := testSpec(t)
	res := &results{SetupS: []float64{1}}
	line := func(r *report) (out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]driverMetric
	}) {
		if err := json.Unmarshal([]byte(driverLine(spec, res, r)), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	bad := line(&report{Attempted: 3, Failed: 2, Values: map[string]float64{"wall_s": 3}})
	if bad.Correct || bad.Attempted != 3 || bad.Failed != 2 {
		t.Errorf("failing run rendered as %+v", bad)
	}
	if len(bad.Metrics) != len(spec.EndToEnd) || bad.Metrics["wall_s"].Value != 3 || bad.Metrics["setup_s"].Unit != "s" {
		t.Errorf("end-to-end metrics: %+v", bad.Metrics)
	}
	ok := line(&report{Attempted: 5})
	if !ok.Correct || ok.Failed != 0 {
		t.Errorf("passing run rendered as %+v", ok)
	}
	// A run that checked nothing is not a correct run, and attempted is
	// never reported below 1.
	if empty := line(&report{}); empty.Correct || empty.Attempted != 1 {
		t.Errorf("empty run rendered as %+v", empty)
	}
	traced := line(&report{Trace: true, Attempted: 1, Layer: map[string]float64{"noc.msgs": 7, "not.listed": 1}})
	if len(traced.Metrics) != len(spec.PerLayer) || traced.Metrics["noc.msgs"].Value != 7 {
		t.Errorf("per-layer metrics: %d of %d", len(traced.Metrics), len(spec.PerLayer))
	}
}

func TestDigestIgnoresUnlistedStats(t *testing.T) {
	st := ghostwriter.Stats{Cycles: 9, Loads: 5, Stores: 3, Scribbles: 2, L1LoadHits: 4, FlitHops: 77, DRAMAccesses: 6}
	st.Msgs[1], st.Msgs[4] = 11, 13
	en := ghostwriter.EnergyMeter{MemoryPJ: 1.5, NetworkPJ: 2.25}
	base := digestOf(100, &st, &en, 0.125)
	if base.memops() != 10 || base.Msgs != [5]uint64{0, 11, 0, 0, 13} || base.EnergyPJ != 3.75 {
		t.Fatalf("digest = %+v", base)
	}
	// Fields outside the named list — the host-side event count and
	// anything added to Stats later — must not disturb the digest.
	st.Events = 1 << 40
	st.BoundEscalations, st.StaleLoadHits, st.L2Recalls = 1, 2, 3
	st.StoresOnS, st.ServicedByGS = 4, 5
	st.DistHist[7] = 99
	if again := digestOf(100, &st, &en, 0.125); again != base {
		t.Errorf("digest moved with unlisted fields: %v", again.diff(base))
	}
	// Listed fields must, and the diff must name them.
	st.GSEntries++
	moved := digestOf(101, &st, &en, 0.125)
	d := strings.Join(moved.diff(base), "; ")
	if !strings.Contains(d, "Cycles: got 101, want 100") || !strings.Contains(d, "GSEntries: got 1, want 0") {
		t.Errorf("diff = %q", d)
	}
	g := &golden{Cells: map[string]digest{"a/d0": base}}
	if msg := g.checkCell("a/d0", base); msg != "" {
		t.Errorf("matching digest reported %q", msg)
	}
	if msg := g.checkCell("a/d0", moved); !strings.Contains(msg, "cell a/d0") || !strings.Contains(msg, "GSEntries") {
		t.Errorf("mismatch reported %q", msg)
	}
	if msg := g.checkCell("b/d0", base); !strings.Contains(msg, "no golden digest") {
		t.Errorf("missing cell reported %q", msg)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := generateInputs(42, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateInputs(42, smokeSizes)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c, _ := generateInputs(43, smokeSizes)
	if reflect.DeepEqual(a.Walks, c.Walks) || reflect.DeepEqual(a.Sharing, c.Sharing) || reflect.DeepEqual(a.Fleet, c.Fleet) {
		t.Error("a different seed left an input unchanged")
	}
	if len(a.Fleet) != 102*smokeSizes.FleetCopies {
		t.Errorf("fleet manifest has %d cells", len(a.Fleet))
	}
	// The child sees the inputs only through the file.
	path := t.TempDir() + "/inputs.gob"
	if err := a.save(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadInputs(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Error("inputs changed on the way through the file")
	}
	for _, it := range back.Fleet {
		if it.Spec.Key() != it.Key {
			t.Fatalf("cell %s: key does not match its spec after the round trip", it.Label)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "memops_per_s", Better: "higher", Bound: 0.10}
	quiet := func(m float64) side { return side{median: m, spread: 0.02, values: []float64{m * 0.99, m, m * 1.01}} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b side
		want string
	}{
		{"same", lower, quiet(10), quiet(10.5), verdictUnchanged},
		{"slower", lower, quiet(10), quiet(11.5), verdictWorse},
		{"faster", lower, quiet(10), quiet(8), verdictBetter},
		{"less throughput", higher, quiet(100), quiet(85), verdictWorse},
		{"more throughput", higher, quiet(100), quiet(120), verdictBetter},
		// Spread beyond the bound: unresolved, never "unchanged" ...
		{"noisy", lower, side{median: 10, spread: 0.3, values: []float64{8, 10, 12}}, quiet(10), verdictUnresolved},
		// ... unless every run of B beats every run of A.
		{"noisy but disjoint", lower, side{median: 10, spread: 0.3, values: []float64{8, 10, 12}}, quiet(5), verdictBetter},
		// setup_s is judged on its medians only.
		{"setup", metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, side{median: 1, spread: 0.9, values: []float64{1}}, quiet(1.1), verdictUnchanged},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	spec := testSpec(t)
	mk := func(wall float64, failed int) *results {
		return &results{SetupS: []float64{1, 1, 1}, Runs: []*report{{
			Workload: "checker", Attempted: 3, Failed: failed,
			Values: map[string]float64{
				"peak_rss_mb": 50, "wall_s": wall, "memops_per_s": 5, "allocs_per_memop": 1,
				"cells_per_s": 2, "warm_replay_ms": 7, "schedules_per_s": 9,
			},
			Samples: map[string][]float64{
				"wall_s": {wall, wall, wall}, "memops_per_s": {5, 5}, "allocs_per_memop": {1, 1},
				"cells_per_s": {2, 2}, "warm_replay_ms": {7, 7}, "schedules_per_s": {9, 9},
			},
		}}}
	}
	var out bytes.Buffer
	if code := agreeResults(&out, spec, mk(1, 0), mk(1.01, 0)); code != 0 {
		t.Errorf("agreeing sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := agreeResults(&out, spec, mk(1, 0), mk(2, 0)); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 2x slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := agreeResults(&out, spec, mk(1, 0), mk(1, 1)); code != 1 || !strings.Contains(out.String(), "1 of 3 checks failed") {
		t.Errorf("a failing set: exit %d\n%s", code, out.String())
	}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeAllWorkloads sets up at smoke size and runs one traced pass of
// every workload, so the benchmark cannot rot unnoticed: every correctness
// check must pass, every end-to-end metric must come out non-zero, and the
// per-layer metrics the passes and probes produce must be exactly the ones
// BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is needed to build gwsweep")
	}
	start := time.Now()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t)
	dir := t.TempDir()
	if err := setup(root, dir, 1, smokeSizes); err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, dir, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	probes := runProbes(e, 0)

	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadList))
	}
	produced := map[string]bool{}
	for i, w := range workloadList {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, w.Name)
		}
		e.tr = &tracer{on: true, epoch: time.Now()}
		p := w.pass(e)
		for _, f := range p.Failures {
			t.Errorf("%s: %s", w.Name, f)
		}
		if p.Attempted == 0 {
			t.Errorf("%s checked nothing", w.Name)
		}
		vals := p.endToEnd()
		vals["setup_s"], vals["peak_rss_mb"] = 1, peakRSSKB("self")/1024
		for _, m := range spec.EndToEnd {
			if v, ok := vals[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, v)
			}
		}
		if len(vals) != len(spec.EndToEnd) {
			t.Errorf("%s produced %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(vals), len(spec.EndToEnd))
		}
		if len(e.tr.spans) < 2 {
			t.Errorf("%s: the traced pass recorded %d spans", w.Name, len(e.tr.spans))
		}
		for k := range w.layerMetrics(passLayer(p, e.tr.spans), probes, 0) {
			produced[k] = true
		}
	}

	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", m.Name)
		}
	}
	for k := range produced {
		// The layer map may carry helper values beyond the declared
		// metrics: the picked tail percentile and the WAL record size.
		helper := strings.HasSuffix(k, "_tail") || strings.HasSuffix(k, "_tail_pct") || k == "wal.mean_record_bytes"
		if !declared[k] && !helper {
			t.Errorf("per-layer metric %s is produced but not declared in BENCHMARK.json", k)
		}
	}
	// Meant to stay under 15 s; logged, not asserted, because a shared host
	// can double any wall time.
	t.Logf("smoke pass of all workloads: %s", time.Since(start).Round(time.Millisecond))
}
