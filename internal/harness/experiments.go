package harness

import (
	"fmt"
	"io"
	"strings"

	"ghostwriter/internal/workloads"
)

// experiment is one name `gwsweep -exp` accepts. The experiments table is
// the only place the evaluation is listed: Manifest, RunExperiment (and so
// the -json report), ExperimentNames (the -exp help string) and the
// unknown-name error all read it.
type experiment struct {
	name string
	// jobs lays out the cells the experiment resolves; nil for the static
	// tables, which simulate nothing.
	jobs func(Options) []Job
	// run resolves the experiment's grid on r, writes its table to w and
	// files its data series into rep.
	run func(r *Runner, w io.Writer, opt Options, rep *Report) error
	// suite stands in for run on Figs. 7–11, which render from the one
	// Table 2 suite grid they share: RunExperiment resolves that grid once,
	// however many of the five it prints, and files it as Report.Suite.
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
	{name: "tab1", run: static(Table1)},
	{name: "tab2", run: static(Table2)},
	{name: "fig1", jobs: fig1Jobs, run: figure((*Runner).Fig1, func(rep *Report, v []Fig1Point) { rep.Fig1 = v })},
	{name: "fig2", jobs: fig2Jobs, run: figure((*Runner).Fig2, func(rep *Report, v []Fig2Row) { rep.Fig2 = v })},
	{name: "fig7", jobs: suiteGrid, suite: Fig7},
	{name: "fig8", jobs: suiteGrid, suite: Fig8},
	{name: "fig9", jobs: suiteGrid, suite: Fig9},
	{name: "fig10", jobs: suiteGrid, suite: Fig10},
	{name: "fig11", jobs: suiteGrid, suite: Fig11},
	{name: "fig12", jobs: fig12Jobs, run: figure((*Runner).Fig12, func(rep *Report, v []Fig12Point) { rep.Fig12 = v })},
	{name: "protocols", jobs: protoJobs, run: figure((*Runner).ProtocolGrid, func(rep *Report, v []ProtocolRow) { rep.Protocols = v })},
	{name: "topologies", jobs: topoJobs, run: figure((*Runner).TopologyGrid, func(rep *Report, v []TopologyRow) { rep.Topologies = v })},
	{name: "ext", jobs: extGrid, run: figure((*Runner).Extensions, func(rep *Report, v []SuiteResult) { rep.Extensions = records(v) })},
	{
		name:       "trend",
		standalone: true,
		jobs:       func(opt Options) []Job { return trendJobs(opt, trendScales) },
		run: func(r *Runner, w io.Writer, opt Options, rep *Report) (err error) {
			rep.Trend, err = r.ScaleTrend(w, opt, trendScales)
			return err
		},
	},
}

// static adapts a table that simulates nothing to experiment.run; it files
// nothing into the report.
func static(table func(io.Writer, Options)) func(*Runner, io.Writer, Options, *Report) error {
	return func(_ *Runner, w io.Writer, opt Options, _ *Report) error {
		table(w, opt)
		return nil
	}
}

// figure adapts a Runner figure method to experiment.run: file puts the
// data series the method returns beside its table into the report.
func figure[T any](fig func(*Runner, io.Writer, Options) (T, error), file func(*Report, T)) func(*Runner, io.Writer, Options, *Report) error {
	return func(r *Runner, w io.Writer, opt Options, rep *Report) error {
		v, err := fig(r, w, opt)
		if err == nil {
			file(rep, v)
		}
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
// in the paper's order — writes its tables to w, and returns the report of
// exactly what it ran: the data series of every selected entry and the
// timing of the cells it submitted. The tables are what `gwsweep -exp`
// prints and the report is what `gwsweep -json` writes. Every entry of the
// full listing ends on a blank separator line; a standalone experiment is
// the whole output and gets none. An unknown name fails before any cell is
// resolved.
func (r *Runner) RunExperiment(w io.Writer, exp string, opt Options) (*Report, error) {
	sel, err := selectExperiments(exp)
	if err != nil {
		return nil, err
	}
	start := r.timingMark()
	rep := &Report{Options: opt, Jobs: r.workers()}
	var suite []SuiteResult
	for _, e := range sel {
		if e.suite != nil {
			if suite == nil {
				if suite, err = r.RunSuite(opt); err != nil {
					return nil, err
				}
				rep.Suite = records(suite)
			}
			e.suite(w, suite)
		} else if err := e.run(r, w, opt, rep); err != nil {
			return nil, err
		}
		if !e.standalone {
			fmt.Fprintln(w)
		}
	}
	rep.Timing = r.timingSince(start)
	return rep, nil
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
