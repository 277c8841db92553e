package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json, the declaration this program implements:
// the metric names, units, directions and regression bounds all come from
// there, so the file and the program cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &benchSpec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return s, nil
}

// endToEndValues returns one run's end-to-end metrics: the run's figures
// plus the whole-invocation set-up time.
func endToEndValues(res *results, r *report) map[string]float64 {
	out := map[string]float64{"setup_s": median(res.SetupS)}
	for name, v := range r.Values {
		out[name] = v
	}
	return out
}

// driverMetric is one metric of the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine renders the one JSON object the acceptance driver reads: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. A per-layer metric that does not exist for the workload
// (fleet latencies on a cell workload) reads 0.
func driverLine(spec *benchSpec, res *results, r *report) string {
	metrics := map[string]driverMetric{}
	if r.Trace {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = driverMetric{Value: r.Layer[m.Name], Unit: m.Unit}
		}
	} else {
		vals := endToEndValues(res, r)
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = driverMetric{Value: vals[m.Name], Unit: m.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// printTable prints every metric of every run by name with its unit.
func printTable(w io.Writer, spec *benchSpec, res *results) {
	h := res.Host
	fmt.Fprintf(w, "host: %s %s/%s, %d CPUs, GOMAXPROCS %d; seed %d; %.0f s per run; sizes %q\n",
		h.Go, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, res.Seed, res.Seconds, res.Sizes.Name)
	fmt.Fprintf(w, "the model is unvalidated against hardware: no accuracy figure is given; simulated statistics are compared exactly\n")
	su := summarize(res.SetupS)
	fmt.Fprintf(w, "setup_s: median %.3f s (q1 %.3f, q3 %.3f, n=%d)\n", su.Median, su.Q1, su.Q3, su.N)
	fmt.Fprintf(w, "run figure: from the mean of the fastest quarter of every unit's samples; pass median, q1, q3, n: the single passes' own figures\n\n")

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\trun figure\tpass median\tq1\tq3\tn\tunit")
	for _, r := range res.Runs {
		if r.Trace {
			continue
		}
		for _, m := range spec.EndToEnd {
			if m.Name == "setup_s" {
				continue
			}
			s := summarize(r.Samples[m.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%d\t%s\n", r.Workload, m.Name, r.Values[m.Name], s.Median, s.Q1, s.Q3, s.N, m.Unit)
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g\t\t\t\t%d\tfailed/attempted\n", r.Workload, ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	}
	tw.Flush()

	for _, r := range res.Runs {
		if !r.Trace {
			continue
		}
		fmt.Fprintf(w, "\nper-layer metrics of the traced run of %s (zeros omitted):\n", r.Workload)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, m := range spec.PerLayer {
			if v := r.Layer[m.Name]; v != 0 {
				fmt.Fprintf(tw, "  %s\t%.5g\t%s\n", m.Name, v, m.Unit)
			}
		}
		// Values the layer map carries beyond BENCHMARK.json: the tail
		// percentile the sample count supports.
		var extra []string
		for k := range r.Layer {
			if strings.HasSuffix(k, "_tail") {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			pct := r.Layer[strings.TrimSuffix(k, "_ms_tail")+"_tail_pct"]
			fmt.Fprintf(tw, "  %s (p%g)\t%.5g\tms\n", k, pct, r.Layer[k])
		}
		tw.Flush()
	}
}
