package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of comparing one metric on one workload between two result
// sets, A (the reference) and B.
const (
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// side is one result set's values of one metric on one workload.
type side struct {
	median float64
	spread float64
	values []float64
}

// sideOf collects a metric's per-run values from a result set. With a
// single run the run's own per-pass samples give the spread; setup_s has
// one value per invocation and its repetitions are the samples.
func sideOf(res *results, workload, metric string) side {
	if metric == "setup_s" {
		s := summarize(res.SetupS)
		return side{median: s.Median, spread: s.spread(), values: res.SetupS}
	}
	var perRun []float64
	var passes []float64
	for _, r := range res.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		perRun = append(perRun, endToEndValues(res, r)[metric])
		passes = r.Samples[metric]
	}
	s := summarize(perRun)
	sd := side{median: s.Median, spread: s.spread(), values: perRun}
	if len(perRun) == 1 && len(passes) > 1 {
		sd.spread = summarize(passes).spread()
	}
	return sd
}

// judge compares B against A for a metric with the given direction and
// bound. worse is how much worse B's median is, as a share of A's. A
// metric whose run-to-run spread exceeds its bound is unresolved — not
// unchanged — unless every run of B reads better than every run of A.
func judge(m metricSpec, a, b side) (worse float64, verdict string) {
	lower := m.Better == "lower"
	worse = ratio(b.median-a.median, a.median)
	if !lower {
		worse = -worse
	}
	noisy := m.Name != "setup_s" && (a.spread > m.Bound || b.spread > m.Bound)
	if noisy {
		allBetter := len(a.values) > 0 && len(b.values) > 0
		for _, bv := range b.values {
			for _, av := range a.values {
				if lower && bv >= av || !lower && bv <= av {
					allBetter = false
				}
			}
		}
		if allBetter {
			return worse, verdictBetter
		}
		return worse, verdictUnresolved
	}
	switch {
	case worse > m.Bound:
		return worse, verdictWorse
	case worse < -m.Bound:
		return worse, verdictBetter
	}
	return worse, verdictUnchanged
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &results{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return res, nil
}

// agree compares two result files metric by metric against the bounds in
// BENCHMARK.json, one row per workload and metric, and returns the exit
// code: non-zero if any metric is worse or unresolved, or any run failed a
// correctness check (failed_frac has an absolute bound of zero).
func agree(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return agreeResults(w, spec, a, b)
}

func agreeResults(w io.Writer, spec *benchSpec, a, b *results) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "warning: hosts differ (%+v vs %+v): times are not comparable\n", a.Host, b.Host)
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB worse by\tspread A\tspread B\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := sideOf(a, wl.Name, m.Name), sideOf(b, wl.Name, m.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			worse, verdict := judge(m, sa, sb)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, sa.median, sb.median, worse*100, sa.spread*100, sb.spread*100, m.Bound*100, verdict)
		}
		for i, res := range []*results{a, b} {
			for _, r := range res.Runs {
				if r.Workload == wl.Name && r.Failed > 0 {
					bad++
					fmt.Fprintf(tw, "%s\tfailed_frac\t\t\t\t\t\t0\t%c: %d of %d checks failed\n", wl.Name, 'A'+i, r.Failed, r.Attempted)
				}
			}
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) worse, unresolved or failed\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the two result sets agree within every bound")
	return 0
}
