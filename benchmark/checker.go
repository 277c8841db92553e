package main

import (
	"fmt"
	"time"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
)

// checkerProtocols are the registered tables the checker workload
// explores, each over the whole mutation kill grid.
var checkerProtocols = []string{"mesi", "ghostwriter", "gw-noGI"}

// checkerPass explores mutate.Grid under every protocol once (half a
// second): tens of thousands of tiny testbeds built, run for three
// operations and torn down. Every exploration must report the pinned
// schedule count, the pinned architectural fingerprint and no violation.
func checkerPass(e *env) passResult {
	var p passResult
	start := time.Now()
	root := e.tr.begin("pass", "", -1)
	m0 := mallocs()
	for _, name := range checkerProtocols {
		pr := proto.MustLookup(name)
		for _, gc := range mutate.Grid(pr) {
			id := name + "/" + gc.Name
			t0 := time.Now()
			res := check.Explore(gc.Cfg)
			t1 := time.Now()
			e.tr.add("check.explore", id, root, t0, t1)
			p.unit(id, t1.Sub(t0).Seconds(), t1.Sub(t0).Seconds())
			p.Cells++
			p.Schedules += float64(res.Schedules)
			p.Memops += float64(res.Schedules * gc.Cfg.Depth)
			p.add("check.schedules", float64(res.Schedules))
			p.add("check.violations", float64(len(res.Violations)))
			p.add("coherence.gs_entries", float64(res.GSEntries))
			p.add("coherence.gi_entries", float64(res.GIEntries))
			p.add("coherence.scribble_fallbacks", float64(res.Fallbacks))

			got := checkerGolden{
				Schedules: res.Schedules, GSEntries: res.GSEntries, GIEntries: res.GIEntries,
				Fallbacks: res.Fallbacks, Fingerprint: res.Fingerprint,
			}
			p.check(len(res.Violations) == 0, func() string {
				return fmt.Sprintf("checker %s: %d violations, first: %s", id, len(res.Violations), res.Violations[0])
			})
			if e.record != nil {
				e.record.Checker[id] = got
				continue
			}
			want, ok := e.golden.Checker[id]
			p.check(ok && got == want, func() string {
				return fmt.Sprintf("checker %s: got %+v, golden %+v (present: %v)", id, got, want, ok)
			})
		}
	}
	p.Mallocs = mallocs() - m0
	e.tr.end(root)
	p.Wall = time.Since(start).Seconds()
	p.add("check.ns_per_schedule", ratio(p.busy()*1e9, p.Schedules))
	return p
}
