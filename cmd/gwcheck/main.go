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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gwcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName = fs.String("protocol", "", "protocol to check (empty = all registered)")
		doMutate  = fs.Bool("mutate", false, "run the mutation-kill matrix instead of a plain check")
		budget    = fs.Duration("budget", 0, "time budget per protocol for -mutate (0 = unlimited)")
		workers   = fs.Int("workers", 0, "parallel mutant evaluations (0 = GOMAXPROCS)")
		verbose   = fs.Bool("v", false, "list every mutant's class and killer in the -mutate report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := proto.Names()
	if *protoName != "" {
		if _, ok := proto.Lookup(*protoName); !ok {
			fmt.Fprintf(stderr, "gwcheck: unknown protocol %q (have %v)\n", *protoName, proto.Names())
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
				fmt.Fprintln(stderr, "gwcheck:", err)
				return 2
			}
			fmt.Fprint(stdout, rep.Matrix())
			if *verbose {
				// One line per mutant, in enumeration order and free of timing:
				// two runs' listings diff empty exactly when every outcome
				// matches (the EXPERIMENTS.md outcome pin).
				for _, o := range rep.Outcomes {
					by := ""
					if o.KilledBy != "" {
						by = " by " + o.KilledBy
					}
					fmt.Fprintf(stdout, "  %s%s: %s\n", o.Class, by, o.Desc)
				}
			}
			if len(rep.Survivors()) > 0 {
				exit = 1
			}
			if _, _, _, skipped := rep.Counts(); skipped > 0 {
				fmt.Fprintf(stderr, "gwcheck: %s: %d mutants skipped on budget — unverified, not passed\n",
					name, skipped)
				exit = 1
			}
			continue
		}
		if code := runChecks(stdout, p); code > exit {
			exit = code
		}
	}
	return exit
}

// runChecks sweeps one protocol through the kill grid's golden
// configurations and reports violations and coverage: per sweep the
// approximate-state counters, and for the grid as a whole how many of the
// table rows the protocol defines some sweep dispatched, naming the rest — a
// mutant in one of those is "equivalent" only because nothing looks.
func runChecks(w io.Writer, p *proto.Protocol) int {
	exit := 0
	var reach check.Reach
	for _, g := range mutate.Grid(p) {
		res := check.Explore(g.Cfg)
		reach.Add(&res.Reach)
		status := "ok"
		if len(res.Violations) > 0 {
			status = fmt.Sprintf("%d violations", len(res.Violations))
			exit = 1
		}
		fmt.Fprintf(w, "%-12s %-11s %6d schedules  GS=%-5d GI=%-5d fallbacks=%-5d %s\n",
			p.Name, g.Name, res.Schedules, res.GSEntries, res.GIEntries, res.Fallbacks, status)
		for _, v := range res.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
		if g.Cfg.Sequential && len(g.Cfg.Ops) == 0 {
			if err := check.CoverageErr(p, res); err != nil {
				fmt.Fprintf(w, "  coverage: %v\n", err)
				exit = 1
			}
		}
	}
	missed, defined := reach.Unreached(p)
	fmt.Fprintf(w, "%-12s rows dispatched %d/%d, never: %s\n",
		p.Name, defined-len(missed), defined, strings.Join(missed, " "))
	return exit
}
