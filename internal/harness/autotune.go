package harness

import "fmt"

// autoTuneCandidates are the d-distances the tuner sweeps, in increasing
// aggressiveness.
var autoTuneCandidates = []int{1, 2, 3, 4, 6, 8, 10, 12}

// AutoTune implements the §3.5 auto-tuning hook (after Green/SAGE-style
// frameworks): it sweeps the d-distance and returns the most aggressive
// setting whose output error stays within targetPct, together with every
// profiled run. A returned d of 0 means no approximation level met the
// target and the application should run on the baseline protocol.
//
// This is profile-guided tuning: the chosen d is only as good as the
// profiling input's representativeness, exactly as the paper cautions.
//
// The candidate sweep fans out across the worker pool (the candidates are
// independent cells), then the winner is selected in candidate order.
func (r *Runner) AutoTune(name string, opt Options, targetPct float64) (int, []RunResult, error) {
	if targetPct < 0 {
		return 0, nil, fmt.Errorf("harness: negative error target %v", targetPct)
	}
	jobs := make([]Job, 0, len(autoTuneCandidates))
	for _, d := range autoTuneCandidates {
		jobs = append(jobs, Job{
			Label: fmt.Sprintf("autotune %s d=%d", name, d),
			Spec:  specFor(name, opt, d, false),
		})
	}
	cells := r.Run(jobs)
	if err := firstErr(cells); err != nil {
		return 0, nil, err
	}
	best := 0
	runs := make([]RunResult, 0, len(cells))
	for i, d := range autoTuneCandidates {
		runs = append(runs, cells[i].Result)
		if cells[i].Result.ErrorPct <= targetPct {
			best = d
		}
	}
	return best, runs, nil
}
