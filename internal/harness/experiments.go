package harness

import (
	"fmt"
	"io"
	"strings"

	"ghostwriter/internal/workloads"
)

// experiment is one name `gwsweep -exp` accepts. The experiments table is
// the only place the evaluation is listed: Manifest, RunExperiment,
// ExperimentNames (the -exp help string) and the unknown-name error all
// read it.
type experiment struct {
	name string
	// jobs lays out the cells the experiment resolves; nil for the static
	// tables, which simulate nothing.
	jobs func(Options) []Job
	// print resolves the experiment's grid on r and writes its table to w.
	print func(r *Runner, w io.Writer, opt Options) error
	// suite stands in for print on Figs. 7–11, which render from the one
	// Table 2 suite grid they share: RunExperiment resolves that grid once,
	// however many of the five it prints.
	suite func(w io.Writer, suite []SuiteResult)
	// standalone keeps the experiment out of "all".
	standalone bool
}

// allExperiments is the -exp value selecting every table entry that is not
// standalone.
const allExperiments = "all"

// trendScales are the input scales the trend experiment measures.
var trendScales = []int{1, 2, 4}

// experiments is the evaluation, in the order "all" prints it.
var experiments = []experiment{
	{name: "tab1", print: static(Table1)},
	{name: "tab2", print: static(Table2)},
	{name: "fig1", jobs: fig1Jobs, print: figure((*Runner).Fig1)},
	{name: "fig2", jobs: fig2Jobs, print: figure((*Runner).Fig2)},
	{name: "fig7", jobs: suiteGrid, suite: Fig7},
	{name: "fig8", jobs: suiteGrid, suite: Fig8},
	{name: "fig9", jobs: suiteGrid, suite: Fig9},
	{name: "fig10", jobs: suiteGrid, suite: Fig10},
	{name: "fig11", jobs: suiteGrid, suite: Fig11},
	{name: "fig12", jobs: fig12Jobs, print: figure((*Runner).Fig12)},
	{name: "protocols", jobs: protoJobs, print: figure((*Runner).ProtocolGrid)},
	{name: "topologies", jobs: topoJobs, print: figure((*Runner).TopologyGrid)},
	{name: "ext", jobs: extGrid, print: figure((*Runner).Extensions)},
	{
		name:       "trend",
		standalone: true,
		jobs:       func(opt Options) []Job { return trendJobs(opt, trendScales) },
		print: func(r *Runner, w io.Writer, opt Options) error {
			_, err := r.ScaleTrend(w, opt, trendScales)
			return err
		},
	},
}

// static adapts a table that simulates nothing to experiment.print.
func static(table func(io.Writer, Options)) func(*Runner, io.Writer, Options) error {
	return func(_ *Runner, w io.Writer, opt Options) error {
		table(w, opt)
		return nil
	}
}

// figure adapts a Runner figure method to experiment.print, dropping the
// data series it returns beside the table it writes.
func figure[T any](fig func(*Runner, io.Writer, Options) (T, error)) func(*Runner, io.Writer, Options) error {
	return func(r *Runner, w io.Writer, opt Options) error {
		_, err := fig(r, w, opt)
		return err
	}
}

// suiteGrid is the Table 2 suite grid behind Figs. 7–11; extGrid the same
// grid over the extension applications.
func suiteGrid(opt Options) []Job { return suiteJobs(workloads.Suite(), opt) }
func extGrid(opt Options) []Job   { return suiteJobs(workloads.Extensions(), opt) }

// ExperimentNames lists the values -exp accepts: "all", then every table
// entry in table order.
func ExperimentNames() []string {
	names := []string{allExperiments}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

// ValidateExperiment reports whether exp is a value ExperimentNames lists,
// with the error Manifest and RunExperiment return for one that is not.
func ValidateExperiment(exp string) error {
	_, err := selectExperiments(exp)
	return err
}

// selectExperiments resolves an -exp value to its table entries: the one
// named, or for "all" every entry not standalone, in print order.
func selectExperiments(exp string) ([]experiment, error) {
	var sel []experiment
	for _, e := range experiments {
		if e.name == exp || exp == allExperiments && !e.standalone {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("harness: unknown experiment %q (want %s)",
			exp, strings.Join(ExperimentNames(), "|"))
	}
	return sel, nil
}

// RunExperiment runs one experiment — or, for "all", the whole evaluation
// in the paper's order — and writes its tables to w: what `gwsweep -exp`
// prints. Every entry of the full listing ends on a blank separator line; a
// standalone experiment is the whole output and gets none. An unknown name
// fails before any cell is resolved.
func (r *Runner) RunExperiment(w io.Writer, exp string, opt Options) error {
	sel, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	var suite []SuiteResult
	for _, e := range sel {
		if e.suite != nil {
			if suite == nil {
				if suite, err = r.RunSuite(opt); err != nil {
					return err
				}
			}
			e.suite(w, suite)
		} else if err := e.print(r, w, opt); err != nil {
			return err
		}
		if !e.standalone {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Manifest enumerates the cells of one gwsweep experiment as dispatchable
// WorkItems — the same grids RunExperiment resolves, deduplicated by
// content-addressed key (the suite figures share one grid, and "all"
// overlaps several). A client POSTs the manifest to a dispatch-enabled
// gwcached and any number of `gwsweep -worker` hosts partition it; once
// the sweep completes, a plain `gwsweep -remote` on any host assembles the
// full evaluation from the shared store with zero simulations.
//
// tab1 and tab2 are static tables with no simulations, so their manifests
// are empty.
func Manifest(exp string, opt Options) ([]WorkItem, error) {
	sel, err := selectExperiments(exp)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, e := range sel {
		if e.jobs != nil {
			jobs = append(jobs, e.jobs(opt)...)
		}
	}
	seen := make(map[string]bool, len(jobs))
	items := make([]WorkItem, 0, len(jobs))
	for _, j := range jobs {
		key := j.Spec.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		items = append(items, WorkItem{Key: key, Label: j.Label, Spec: j.Spec})
	}
	return items, nil
}
