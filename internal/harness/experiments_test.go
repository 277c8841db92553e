package harness

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// recordingRunner is a serial Runner whose simulation is a stub that logs
// the key of every cell it is asked to simulate. One worker makes the log
// order the order cells were resolved in; the memo keeps a key from being
// logged twice.
func recordingRunner() (*Runner, *[]string) {
	var keys []string
	r := NewRunner(1)
	r.execute = func(s Spec) (RunResult, error) {
		keys = append(keys, s.Key())
		return RunResult{App: s.App, DDist: s.DDist, Threads: s.Threads, Cycles: 1}, nil
	}
	return r, &keys
}

// TestExperimentTable: every name is listed once, "all" is first in the
// -exp list, and "all" selects exactly the entries not marked standalone,
// in table (= print) order.
func TestExperimentTable(t *testing.T) {
	names := ExperimentNames()
	if names[0] != allExperiments || len(names) != len(experiments)+1 {
		t.Fatalf("ExperimentNames() = %v, want %q then the %d table entries", names, allExperiments, len(experiments))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("experiment %q is listed twice", n)
		}
		seen[n] = true
	}
	var want []string
	for _, e := range experiments {
		if !e.standalone {
			want = append(want, e.name)
		}
		if (e.run == nil) == (e.suite == nil) {
			t.Errorf("%s: want exactly one of run and suite", e.name)
		}
		if e.suite != nil && e.jobs == nil {
			t.Errorf("%s: a suite figure with no grid", e.name)
		}
	}
	sel, err := selectExperiments(allExperiments)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range sel {
		got = append(got, e.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("all selects %v, want %v", got, want)
	}
	if len(want) == len(experiments) {
		t.Error("no standalone experiment: trend must stay out of all")
	}
}

// TestRunExperimentResolvesItsManifest: for every -exp value, the cells a
// run resolves are exactly Manifest's keys, in manifest order — so a fleet
// that completed the manifest leaves a later run nothing to simulate.
func TestRunExperimentResolvesItsManifest(t *testing.T) {
	opt := Options{Scale: 1, Threads: 4}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			manifest, err := Manifest(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(manifest))
			for i, it := range manifest {
				want[i] = it.Key
			}
			r, got := recordingRunner()
			var out bytes.Buffer
			if _, err := r.RunExperiment(&out, name, opt); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(*got, want) {
				t.Errorf("resolved %d cells, manifest has %d; or the order differs", len(*got), len(want))
			}
			if out.Len() == 0 {
				t.Error("printed nothing")
			}
		})
	}
}

// TestRunExperimentSubmitsSuiteOnce: Figs. 7–11 render from one resolution
// of the suite grid. A second submission would be all memo hits, so it is
// the submissions (one timing entry per submitted job) that are counted.
func TestRunExperimentSubmitsSuiteOnce(t *testing.T) {
	opt := Options{Scale: 1, Threads: 4}
	r, _ := recordingRunner()
	if _, err := r.RunExperiment(io.Discard, allExperiments, opt); err != nil {
		t.Fatal(err)
	}
	first := suiteGrid(opt)[0].Label
	n := 0
	for _, c := range r.CellTimings() {
		if c.Label == first {
			n++
		}
	}
	if n != 1 {
		t.Errorf("suite cell %q submitted %d times for all, want 1", first, n)
	}
}

// TestRunExperimentUnknownName: an unknown name fails, with the error
// gwsweep's up-front check reports, before any cell is resolved or any
// byte printed.
func TestRunExperimentUnknownName(t *testing.T) {
	r, keys := recordingRunner()
	var out bytes.Buffer
	rep, err := r.RunExperiment(&out, "fig99", DefaultOptions())
	want := ValidateExperiment("fig99")
	if rep != nil || err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("RunExperiment(fig99) = %v, %v, ValidateExperiment = %v; want no report and the same error", rep, err, want)
	}
	if _, merr := Manifest("fig99", DefaultOptions()); merr == nil {
		t.Error("Manifest(fig99) succeeded")
	}
	if len(*keys) != 0 || len(r.CellTimings()) != 0 || out.Len() != 0 {
		t.Errorf("unknown name resolved %d cells, submitted %d, printed %d bytes; want none",
			len(*keys), len(r.CellTimings()), out.Len())
	}
	for _, name := range ExperimentNames() {
		if err := ValidateExperiment(name); err != nil {
			t.Errorf("ValidateExperiment(%q) = %v", name, err)
		}
	}
}

// reportSections names the data sections rep carries, in Report order.
func reportSections(rep *Report) []string {
	var out []string
	for _, s := range []struct {
		name string
		n    int
	}{
		{"fig1", len(rep.Fig1)},
		{"fig2", len(rep.Fig2)},
		{"suite", len(rep.Suite)},
		{"fig12", len(rep.Fig12)},
		{"protocols", len(rep.Protocols)},
		{"topologies", len(rep.Topologies)},
		{"extensions", len(rep.Extensions)},
		{"trend", len(rep.Trend)},
	} {
		if s.n > 0 {
			out = append(out, s.name)
		}
	}
	return out
}

// TestRunExperimentReportSections: the report of every -exp value carries
// exactly the sections of the entries it ran, and its timing counts exactly
// the cells the run simulated and submitted (the suite grid once, however
// many of Figs. 7–11 printed).
func TestRunExperimentReportSections(t *testing.T) {
	want := map[string][]string{
		"all":        {"fig1", "fig2", "suite", "fig12", "protocols", "topologies", "extensions"},
		"tab1":       nil,
		"tab2":       nil,
		"fig1":       {"fig1"},
		"fig2":       {"fig2"},
		"fig7":       {"suite"},
		"fig8":       {"suite"},
		"fig9":       {"suite"},
		"fig10":      {"suite"},
		"fig11":      {"suite"},
		"fig12":      {"fig12"},
		"protocols":  {"protocols"},
		"topologies": {"topologies"},
		"ext":        {"extensions"},
		"trend":      {"trend"},
	}
	opt := Options{Scale: 1, Threads: 4}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			wantSections, ok := want[name]
			if !ok {
				t.Fatalf("no expected sections for %q", name)
			}
			r, keys := recordingRunner()
			rep, err := r.RunExperiment(io.Discard, name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportSections(rep); !slices.Equal(got, wantSections) {
				t.Errorf("sections %v, want %v", got, wantSections)
			}
			sel, _ := selectExperiments(name)
			submitted, suite := 0, false
			for _, e := range sel {
				if e.jobs == nil || e.suite != nil && suite {
					continue
				}
				suite = suite || e.suite != nil
				submitted += len(e.jobs(opt))
			}
			tm := rep.Timing
			if tm == nil {
				t.Fatal("no timing section")
			}
			if tm.Simulated != uint64(len(*keys)) || len(tm.Cells) != submitted ||
				tm.CacheHits != uint64(submitted-len(*keys)) {
				t.Errorf("timing: %d simulated, %d cached, %d cells; ran %d simulations of %d submitted cells",
					tm.Simulated, tm.CacheHits, len(tm.Cells), len(*keys), submitted)
			}
		})
	}
}
