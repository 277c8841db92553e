package mutate

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// Class is a mutant's fate under the kill grid.
type Class uint8

// Mutant classifications.
const (
	// Killed: some grid sweep produced a violation (or the mutant zeroed a
	// coverage counter the golden protocol exercises — a vacuously-sound
	// table is a kill, not an escape).
	Killed Class = iota
	// Equivalent: violation-free and bit-identical to the golden
	// fingerprint on every sequential sweep — the mutation is
	// architecturally invisible under the grid (e.g. deleting a rule the
	// testbed's configuration never fires).
	Equivalent
	// Survived: violation-free but behaviourally different from the golden
	// protocol. Every survivor is a checker gap by construction.
	Survived
	// Skipped: the time budget expired before this mutant ran.
	Skipped
)

// String names the classification.
func (c Class) String() string {
	switch c {
	case Killed:
		return "killed"
	case Equivalent:
		return "equivalent"
	case Survived:
		return "survived"
	case Skipped:
		return "skipped"
	}
	return "?"
}

// GridConfig is one named checker sweep in the kill grid.
type GridConfig struct {
	Name string
	Cfg  check.Config
}

// Grid is the staged kill grid: cheap, kill-rich sweeps first so most
// mutants die before the expensive ones run. Between them the stages
// dispatch 36 table rows of each protocol; the defined rows none of them
// reaches — at depth 3 that includes every resident row of GS and GI — are
// pinned by TestKillGridRowCoverage, and a mutant there is equivalent only
// in the sense that nothing looks (Report.Matrix counts them).
//
//   - conc-mixed: 2 cores race all five opcodes on one block — transient
//     races, scribble paths, upgrade/invalidate crossings.
//   - seq-mixed: the same alphabet quiesced per step — the per-step
//     data-value audits (load values, conventional-store visibility) and
//     the cross-variant fingerprint.
//   - seq-evict: precise ops over three same-set addresses — evictions,
//     writebacks, and the sequential-consistency equality audit.
//   - conc-evict: the same address pressure raced — PUT/forward and
//     PUT/invalidate crossings through the EVA state.
//   - conc-3core: three cores race load/store/scribble — invalidation
//     fan-out, sharer-list bookkeeping beyond one bit.
func Grid(p *proto.Protocol) []GridConfig {
	one := []mem.Addr{0x000}
	sameSet := []mem.Addr{0x000, 0x080, 0x100}
	mk := func(name string, cfg check.Config) GridConfig {
		cfg.Protocol = p
		cfg.DDist = 8
		cfg.MaxViolations = 1
		return GridConfig{Name: name, Cfg: cfg}
	}
	ldst := []check.Opcode{check.Load, check.Store}
	return []GridConfig{
		mk("conc-mixed", check.Config{Cores: 2, Addrs: one, Depth: 3}),
		mk("seq-mixed", check.Config{Cores: 2, Addrs: one, Depth: 3, Sequential: true}),
		mk("seq-evict", check.Config{Cores: 2, Addrs: sameSet, Depth: 3, Ops: ldst, Sequential: true}),
		mk("conc-evict", check.Config{Cores: 2, Addrs: sameSet, Depth: 3, Ops: ldst}),
		mk("conc-3core", check.Config{Cores: 3, Addrs: one, Depth: 3,
			Ops: []check.Opcode{check.Load, check.Store, check.ScribbleNear}}),
	}
}

// Outcome is one mutant's result.
type Outcome struct {
	M        Mutation
	Desc     string
	Class    Class
	KilledBy string // "<kind>@<config>" or "coverage@<config>"; empty unless Killed
}

// Report is one protocol's full mutation matrix.
type Report struct {
	Protocol string
	Golden   []goldenRun
	Outcomes []Outcome
	Elapsed  time.Duration
}

// goldenRun is what the golden protocol's sweep of one grid stage left for
// its mutants to be judged against. Reach doubles as the stage's relevance
// filter: see classify.
type goldenRun struct {
	Name        string
	Fingerprint uint64
	GSEntries   uint64
	GIEntries   uint64
	Reach       check.Reach
}

// Options tunes a mutation run.
type Options struct {
	// Budget stops launching new mutants once exceeded (0 = unlimited);
	// unstarted mutants classify as Skipped.
	Budget time.Duration
}

// Run evaluates every mutant of p against the kill grid, GOMAXPROCS
// mutants at once; each evaluation's explorations also deal their
// schedules to every core. It errors if the golden protocol itself
// violates any sweep — a mutation matrix over an unsound golden measures
// nothing.
func Run(p *proto.Protocol, opt Options) (*Report, error) {
	start := time.Now()
	grid := Grid(p)
	golden, err := goldenRuns(p, grid)
	if err != nil {
		return nil, err
	}
	rep := &Report{Protocol: p.Name, Golden: golden}

	muts := Enumerate(p)
	rep.Outcomes = make([]Outcome, len(muts))
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	deadline := time.Time{}
	if opt.Budget > 0 {
		deadline = start.Add(opt.Budget)
	}
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(muts) {
					return
				}
				m := muts[i]
				out := Outcome{M: m, Desc: m.Describe(p)}
				if !deadline.IsZero() && time.Now().After(deadline) {
					out.Class = Skipped
				} else {
					out.Class, out.KilledBy = classify(p, m, grid, rep.Golden)
				}
				rep.Outcomes[i] = out
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// goldenRuns sweeps p, as the grid's configs name it, through every stage; p
// must pass them all.
func goldenRuns(p *proto.Protocol, grid []GridConfig) ([]goldenRun, error) {
	golden := make([]goldenRun, 0, len(grid))
	for _, g := range grid {
		res := check.Explore(g.Cfg)
		if len(res.Violations) > 0 {
			return nil, fmt.Errorf("golden protocol %s violates %s: %s", p.Name, g.Name, res.Violations[0])
		}
		golden = append(golden, goldenRun{
			Name: g.Name, Fingerprint: res.Fingerprint,
			GSEntries: res.GSEntries, GIEntries: res.GIEntries, Reach: res.Reach,
		})
	}
	return golden, nil
}

// classify runs one mutant through the grid in stage order, stopping at the
// first kill. Equivalence is judged on the sequential sweeps' fingerprints
// only: concurrent fingerprints embed race timing, which a sound-but-
// differently-timed mutant may legitimately perturb.
//
// A stage whose golden sweep never dispatched the mutant's row is not run.
// Every operator rewrites that one (side, state, event) row and nothing else
// (Mutation.Apply), so on any schedule mutant and golden execute identically
// up to the first dispatch of the row; where golden never gets there, neither
// does the mutant, and its sweep would repeat golden's — no violation, the
// same coverage counters, the same fingerprint.
func classify(p *proto.Protocol, m Mutation, grid []GridConfig, golden []goldenRun) (Class, string) {
	mut, ok := m.Apply(p)
	if !ok {
		// Enumerate only emits applicable mutations; an inapplicable one here
		// is a factory bug, surfaced as a survivor so the matrix test fails.
		return Survived, ""
	}
	equivalent := true
	for gi, g := range grid {
		if !m.reached(&golden[gi].Reach) {
			continue
		}
		cfg := g.Cfg
		cfg.Protocol = mut
		res := check.Explore(cfg)
		if len(res.Violations) > 0 {
			return Killed, res.Violations[0].Kind + "@" + g.Name
		}
		if (golden[gi].GSEntries > 0 && res.GSEntries == 0) ||
			(golden[gi].GIEntries > 0 && res.GIEntries == 0) {
			return Killed, "coverage@" + g.Name
		}
		if cfg.Sequential && res.Fingerprint != golden[gi].Fingerprint {
			equivalent = false
		}
	}
	if equivalent {
		return Equivalent, ""
	}
	return Survived, ""
}

// Survivors returns the non-equivalent, non-killed mutants — the checker
// gaps.
func (r *Report) Survivors() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Class == Survived {
			out = append(out, o)
		}
	}
	return out
}

// Counts tallies the matrix by class.
func (r *Report) Counts() (killed, equivalent, survived, skipped int) {
	for _, o := range r.Outcomes {
		switch o.Class {
		case Killed:
			killed++
		case Equivalent:
			equivalent++
		case Survived:
			survived++
		case Skipped:
			skipped++
		}
	}
	return
}

// gridReach is the union of the stages' reach: the rows some golden sweep of
// the grid dispatched.
func gridReach(golden []goldenRun) check.Reach {
	var reach check.Reach
	for i := range golden {
		reach.Add(&golden[i].Reach)
	}
	return reach
}

// unreached counts the equivalent mutants whose row no golden sweep of the
// grid dispatched: equivalent because no schedule looks at the row, not
// because some schedule looked and saw no difference.
func (r *Report) unreached() int {
	reach := gridReach(r.Golden)
	n := 0
	for _, o := range r.Outcomes {
		if o.Class == Equivalent && !o.M.reached(&reach) {
			n++
		}
	}
	return n
}

// Matrix renders the per-operator kill matrix plus any survivors.
func (r *Report) Matrix() string {
	type row struct{ killed, equivalent, survived, skipped int }
	byOp := map[Op]*row{}
	for _, o := range r.Outcomes {
		rw := byOp[o.M.Op]
		if rw == nil {
			rw = &row{}
			byOp[o.M.Op] = rw
		}
		switch o.Class {
		case Killed:
			rw.killed++
		case Equivalent:
			rw.equivalent++
		case Survived:
			rw.survived++
		case Skipped:
			rw.skipped++
		}
	}
	killed, equivalent, survived, skipped := r.Counts()
	var b strings.Builder
	nonEquiv := killed + survived
	rate := 100.0
	if nonEquiv > 0 {
		rate = 100 * float64(killed) / float64(nonEquiv)
	}
	fmt.Fprintf(&b, "protocol %-12s %4d mutants: %4d killed, %3d equivalent (%d unreached), %d survived",
		r.Protocol, len(r.Outcomes), killed, equivalent, r.unreached(), survived)
	if skipped > 0 {
		fmt.Fprintf(&b, ", %d skipped (budget)", skipped)
	}
	fmt.Fprintf(&b, "  — kill rate %.1f%% of non-equivalent  (%.1fs)\n", rate, r.Elapsed.Seconds())
	b.WriteString("  operator        mutants  killed  equivalent  survived\n")
	ops := make([]Op, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		rw := byOp[op]
		n := rw.killed + rw.equivalent + rw.survived + rw.skipped
		fmt.Fprintf(&b, "  %-15s %7d %7d %11d %9d\n", op, n, rw.killed, rw.equivalent, rw.survived)
	}
	for _, o := range r.Survivors() {
		fmt.Fprintf(&b, "  SURVIVOR: %s\n", o.Desc)
	}
	return b.String()
}
