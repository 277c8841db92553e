// Command gwcheck drives the protocol model checker and the mutation-kill
// matrix from the command line.
//
// Default mode runs the exhaustive checker grid over the named protocols
// and reports violations and coverage. -mutate instead enumerates every
// semantic table mutant, pushes each through the grid, and prints the
// per-operator kill matrix; any surviving non-equivalent mutant (a checker
// gap) makes the command exit non-zero, which is how CI enforces the 100%
// kill rate.
//
// Usage:
//
//	gwcheck                          # check all registered protocols
//	gwcheck -protocol ghostwriter    # check one
//	gwcheck -mutate                  # full mutation matrix, all protocols
//	gwcheck -mutate -budget 4m       # bounded run (skipped mutants reported)
package main

import (
	"flag"
	"fmt"
	"os"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		protoName = flag.String("protocol", "", "protocol to check (empty = all registered)")
		doMutate  = flag.Bool("mutate", false, "run the mutation-kill matrix instead of a plain check")
		budget    = flag.Duration("budget", 0, "time budget per protocol for -mutate (0 = unlimited)")
		workers   = flag.Int("workers", 0, "parallel mutant evaluations (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "list every mutant's class and killer in the -mutate report")
	)
	flag.Parse()

	names := proto.Names()
	if *protoName != "" {
		if _, ok := proto.Lookup(*protoName); !ok {
			fmt.Fprintf(os.Stderr, "gwcheck: unknown protocol %q (have %v)\n", *protoName, proto.Names())
			return 2
		}
		names = []string{*protoName}
	}

	exit := 0
	for _, name := range names {
		p := proto.MustLookup(name)
		if *doMutate {
			rep, err := mutate.Run(p, mutate.Options{Budget: *budget, Workers: *workers})
			if err != nil {
				fmt.Fprintln(os.Stderr, "gwcheck:", err)
				return 2
			}
			fmt.Print(rep.Matrix())
			if *verbose {
				// One line per mutant, in enumeration order and free of timing:
				// two runs' listings diff empty exactly when every outcome
				// matches (the EXPERIMENTS.md outcome pin).
				for _, o := range rep.Outcomes {
					by := ""
					if o.KilledBy != "" {
						by = " by " + o.KilledBy
					}
					fmt.Printf("  %s%s: %s\n", o.Class, by, o.Desc)
				}
			}
			if len(rep.Survivors()) > 0 {
				exit = 1
			}
			if _, _, _, skipped := rep.Counts(); skipped > 0 {
				fmt.Fprintf(os.Stderr, "gwcheck: %s: %d mutants skipped on budget — unverified, not passed\n",
					name, skipped)
				exit = 1
			}
			continue
		}
		if code := runChecks(p); code > exit {
			exit = code
		}
	}
	return exit
}

// runChecks sweeps one protocol through the kill grid's golden
// configurations and reports violations and coverage.
func runChecks(p *proto.Protocol) int {
	exit := 0
	for _, g := range mutate.Grid(p) {
		res := check.Explore(g.Cfg)
		status := "ok"
		if len(res.Violations) > 0 {
			status = fmt.Sprintf("%d violations", len(res.Violations))
			exit = 1
		}
		fmt.Printf("%-12s %-11s %6d schedules  GS=%-5d GI=%-5d fallbacks=%-5d %s\n",
			p.Name, g.Name, res.Schedules, res.GSEntries, res.GIEntries, res.Fallbacks, status)
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
		if g.Cfg.Sequential && len(g.Cfg.Ops) == 0 {
			if err := check.CoverageErr(p, res); err != nil {
				fmt.Printf("  coverage: %v\n", err)
				exit = 1
			}
		}
	}
	return exit
}
