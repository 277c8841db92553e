// Package check is an exhaustive protocol model checker for tiny machine
// configurations. It enumerates every schedule of core operations up to a
// bounded depth (2–3 cores, 1–3 block addresses, 4–5 op variants), runs
// each schedule from cycle 0 on a two-level testbed (real L1 controllers,
// real directory, real mesh — the same components the simulator uses), and
// asserts the protocol invariants (1–3 and 8 are stated once, in
// coherence.AuditBlock, which Machine.CheckInvariants applies to every
// simulated run as well). An exploration deals its schedules in chunks to
// one worker per core; each worker rewinds its testbed between schedules,
// and testbeds outlive explorations, parked in a process-wide free list for
// the next one (DESIGN.md §10):
//
//  1. Single writer: at most one L1 holds a block in M or E.
//  2. Directory agreement: the sharer list covers every S/GS copy and
//     nothing else (no phantom sharers), the recorded owner is exactly the
//     M/E holder, and the directory's state record matches its own
//     owner/sharer bookkeeping.
//  3. GI invisibility: no GI copy is tracked by the directory.
//  4. No silent drops: every (state, event) pair reached during the run has
//     a table entry (holes are recorded via the controllers' OnMissing
//     hooks and turn into detectable deadlocks instead of panics).
//  5. Value integrity: every loaded or cached word is a value the schedule
//     actually wrote, and a GS copy's hidden word stays within d-distance
//     of the block's coherent value (d-distance is XOR-defined, so
//     per-write similarity composes across a residency without widening).
//  6. Data-value coherence (sequential mode): after each step quiesces, a
//     precise schedule's coherent word equals the last store and a load
//     returns it exactly; a mixed schedule's load may diverge from the
//     coherent word only via a GS copy within d or a GI copy.
//  7. Liveness: every schedule drains to quiescence within the step budget
//     (no livelock), and a protocol panic is reported as a violation
//     rather than crashing the sweep.
//  8. Clean exclusivity: an Exclusive copy's word equals the backing L2
//     line — E is granted fresh and never written (a store moves to M), so
//     a dirty word in E is a writeback waiting to be silently lost.
//  9. Residency accounting (sequential mode): a GS/GI copy exists only if
//     a GS/GI entry was counted, a counted entry installs the copy in the
//     same step, and a dissimilar (far) scribble is either published
//     coherently or absorbed by a residency that already existed — entry
//     into GS/GI always runs the scribe comparator.
//
// The state space is (cores × ops × addrs)^depth schedules; the shipped
// test configurations stay in the tens of thousands, each a few
// microseconds of simulation on the rewound testbed (DESIGN.md §10), so
// the whole sweep fits in a CI smoke job. Result.Fingerprint
// digests the architectural outcome of a violation-free sweep; the mutation
// runner (internal/coherence/mutate) compares it against the golden
// protocol's to detect behaviourally equivalent mutants, and consults
// Result.Reach — the table rows the sweep dispatched — to skip sweeps that
// cannot tell a mutant from the golden protocol at all.
package check

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ghostwriter/internal/approx"
	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/dram"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// Opcode is one schedule-step operation variant. Near/far scribbles pin
// both branches of the scribe comparator; the approximate store exercises
// GS/GI absorption of conventional stores inside an approximate region.
type Opcode uint8

// Schedule-step operations.
const (
	Load Opcode = iota
	Store
	StoreApprox
	ScribbleNear
	ScribbleFar

	NumOpcodes
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case Load:
		return "ld"
	case Store:
		return "st"
	case StoreApprox:
		return "sta"
	case ScribbleNear:
		return "scrN"
	case ScribbleFar:
		return "scrF"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Step is one schedule entry: core issues op on Addrs[Addr] as soon as the
// core's L1 is idle (the cores are blocking, so interleaving comes from the
// issue order across cores).
type Step struct {
	Core int
	Op   Opcode
	Addr int
}

func (s Step) String() string { return fmt.Sprintf("c%d:%s@a%d", s.Core, s.Op, s.Addr) }

func formatSchedule(steps []Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Config bounds one exploration.
type Config struct {
	Protocol *proto.Protocol
	Cores    int
	Addrs    []mem.Addr // distinct block-aligned addresses
	Depth    int        // schedule length
	DDist    int        // d-distance for scribbles and approximate stores
	// Ops restricts the opcode alphabet (nil = all five). A restricted
	// alphabet buys depth: {Load, Store} over three same-set addresses
	// exercises evictions at the same schedule count a one-address
	// five-opcode sweep needs.
	Ops []Opcode
	// Sequential quiesces the machine between steps instead of issuing the
	// moment the issuing core is idle. Concurrent issue explores request
	// races; sequential issue reaches the states those races outrun at
	// shallow depth (a scribble after losing a block to a remote store must
	// wait for the invalidation to land before it can enter GI), and enables
	// the per-step data-value audits (each step's outcome is a pure function
	// of protocol semantics, not race timing).
	Sequential bool
	// MaxViolations stops the exploration once this many schedules have
	// failed (0 = 8). One table bug fails a large fraction of the space;
	// the first few counterexamples carry all the signal.
	MaxViolations int
}

// ops returns the effective opcode alphabet.
func (c Config) ops() []Opcode {
	if len(c.Ops) > 0 {
		return c.Ops
	}
	return []Opcode{Load, Store, StoreApprox, ScribbleNear, ScribbleFar}
}

// Violation is one failed schedule.
type Violation struct {
	Schedule []Step
	// Kind is "deadlock", "livelock", "invariant", "value",
	// "missing-transition", or "panic".
	Kind   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", formatSchedule(v.Schedule), v.Kind, v.Detail)
}

// Result summarizes an exploration. The coverage counters (summed over
// every schedule) let tests assert the sweep actually reached the
// approximate states rather than vacuously passing. Fingerprint digests the
// architectural outcome (per-step completion values, final cache and
// directory states, coherent words) of every violation-free schedule —
// statistics counters, energy, and replacement metadata are deliberately
// excluded, so two protocols with identical memory behaviour hash equal.
// Fingerprints from sequential sweeps are race-free and comparable across
// protocol variants; concurrent sweeps embed race outcomes, which are
// timing-sensitive, so only compare them between identical tables.
//
// Reach is coverage of the tables themselves: which (state, event) rows the
// sweep's schedules dispatched.
type Result struct {
	Schedules   int
	Violations  []Violation
	GSEntries   uint64
	GIEntries   uint64
	Fallbacks   uint64
	Fingerprint uint64
	Reach       Reach
}

// Reach marks the table rows an exploration dispatched: L1[s][e] is set once
// any L1 looks up row (s, e), Dir[s][e] once the directory does (e counted
// from EvGETS, as proto.DirTable indexes it) — whether or not the table
// defines the row. A schedule runs identically under two tables that differ
// only in rows it never dispatches, which is what lets the mutation runner
// skip a sweep that cannot see a mutant.
type Reach struct {
	L1  [proto.NumL1States][proto.NumL1Events]bool
	Dir [proto.NumDirStates][proto.NumDirEvents]bool
}

// Add marks in r every row o marks.
func (r *Reach) Add(o *Reach) {
	for s := range o.L1 {
		for e, hit := range o.L1[s] {
			r.L1[s][e] = r.L1[s][e] || hit
		}
	}
	for s := range o.Dir {
		for e, hit := range o.Dir[s] {
			r.Dir[s][e] = r.Dir[s][e] || hit
		}
	}
}

// Unreached names, in table order, the rows p defines that r does not mark
// ("GS/Load", "DS/PUTS"), and counts the rows p defines.
func (r *Reach) Unreached(p *proto.Protocol) (rows []string, defined int) {
	for s := range p.L1 {
		for e, rules := range p.L1[s] {
			if rules == nil {
				continue
			}
			defined++
			if !r.L1[s][e] {
				rows = append(rows, fmt.Sprintf("%s/%v", proto.L1StateName(cache.State(s)), proto.Event(e)))
			}
		}
	}
	for s := range p.Dir {
		for e, rules := range p.Dir[s] {
			if rules == nil {
				continue
			}
			defined++
			if !r.Dir[s][e] {
				rows = append(rows, fmt.Sprintf("%v/%v", proto.DirState(s), proto.EvGETS+proto.Event(e)))
			}
		}
	}
	return rows, defined
}

// CoverageErr reports an error when the sweep never entered an approximate
// state the protocol's table defines: a protocol variant that silently
// stops exercising GS (or GI) passes every invariant vacuously, which is
// itself a checking failure. Call it on full-alphabet sequential sweeps
// (concurrent issue at shallow depth legitimately misses GI).
func CoverageErr(p *proto.Protocol, r Result) error {
	if p.L1[cache.GS][proto.EvLoad] != nil && r.GSEntries == 0 {
		return fmt.Errorf("protocol %s defines GS rows but the sweep entered GS zero times", p.Name)
	}
	if p.L1[cache.GI][proto.EvLoad] != nil && r.GIEntries == 0 {
		return fmt.Errorf("protocol %s defines GI rows but the sweep entered GI zero times", p.Name)
	}
	return nil
}

// schedules returns the size of the exploration's schedule space.
func (c Config) schedules() int {
	alphabet := c.Cores * len(c.ops()) * len(c.Addrs)
	total := 1
	for i := 0; i < c.Depth; i++ {
		total *= alphabet
	}
	return total
}

// schedule decodes the idx-th schedule of the enumeration into steps
// (len(steps) == Depth): idx read as a base-alphabet number, least
// significant digit first.
func (c Config) schedule(idx int, steps []Step) {
	ops := c.ops()
	alphabet := c.Cores * len(ops) * len(c.Addrs)
	for i := range steps {
		k := idx % alphabet
		idx /= alphabet
		steps[i] = Step{
			Core: k % c.Cores,
			Op:   ops[(k/c.Cores)%len(ops)],
			Addr: k / (c.Cores * len(ops)),
		}
	}
}

// Explore enumerates every (cores × ops × addrs)^depth schedule and runs
// each from cycle 0, collecting violations up to the configured cap.
//
// The schedules are dealt out in chunks of chunkSize, in increasing index
// order, to min(GOMAXPROCS, chunks) workers; the caller's goroutine is
// worker 0, so on one core no goroutine starts. Each worker takes a testbed
// from the free list of parked ones (or builds one) and rewinds it before
// every later schedule; a rewound testbed is indistinguishable from a new
// one (see harness.reset), so each schedule's outcome is a pure function of
// its index. Rewinding needs a quiesced machine, which only a
// violation-free run guarantees — a failed schedule may leave pending
// events, a busy line or a message out of the pool — so after any
// violation the worker drops its testbed and takes another. Once every
// worker is done the caller folds the fingerprints and merges the chunks in
// index order, up to the violation cap, so the Result is the one a single
// loop over the indices returns, at any core count. A panic outside a
// schedule's run (a nil Protocol, say) surfaces on the caller once every
// worker has stopped.
func Explore(cfg Config) Result {
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 8
	}
	total := cfg.schedules()
	e := &exploration{
		cfg:    cfg,
		total:  total,
		fps:    make([]uint64, total),
		chunks: make([]chunk, (total+chunkSize-1)/chunkSize),
	}
	workers := min(runtime.GOMAXPROCS(0), len(e.chunks))
	steps := make([]Step, max(workers, 1)*cfg.Depth)
	for w := 1; w < workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.work(steps[w*cfg.Depth : (w+1)*cfg.Depth])
		}()
	}
	e.work(steps[:cfg.Depth])
	e.wg.Wait()
	if e.stop.Load() {
		panic(e.panicVal)
	}
	return e.merge()
}

// chunkSize is how many consecutive schedules a worker takes at a time: a
// grid stage (729–1 728 schedules) splits into enough chunks to keep every
// core busy to the end, and handing one out costs nothing beside running it.
const chunkSize = 32

// exploration is the state Explore's workers share.
type exploration struct {
	cfg   Config
	total int
	// fps holds each violation-free schedule's fingerprint, by index.
	fps []uint64
	// chunks holds what each chunk's schedules left for the merge.
	chunks []chunk
	// next is the next chunk to hand out; found counts the violations found
	// so far over all chunks.
	next, found atomic.Int64
	wg          sync.WaitGroup
	// stop ends the exploration early after a worker panicked; panicVal is
	// the first such panic, re-raised on the caller.
	stop     atomic.Bool
	mu       sync.Mutex
	panicVal any
}

// tally is what a run of schedules adds to a Result besides fingerprints and
// violations: the coverage counters and the table rows dispatched.
type tally struct {
	gsEntries, giEntries, fallbacks uint64
	reach                           Reach
}

// addTo folds t into res.
func (t *tally) addTo(res *Result) {
	res.GSEntries += t.gsEntries
	res.GIEntries += t.giEntries
	res.Fallbacks += t.fallbacks
	res.Reach.Add(&t.reach)
}

// chunk is one chunk's tally, and each of its violations with the chunk's
// tally as it stood right after that schedule — what the merge keeps when
// the violation cap lands there.
type chunk struct {
	tally
	viols []chunkViolation
}

type chunkViolation struct {
	idx int
	v   Violation
	at  tally
}

// work runs chunks until none is left, steps being the worker's own
// schedule buffer. It takes no new chunk once the exploration has found as
// many violations as the cap: every chunk handed out later lies past all of
// them, so past the cap. A panic (outside run, which reports its own as
// violations) stops every worker and is kept for the caller.
func (e *exploration) work(steps []Step) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			if !e.stop.Load() {
				e.panicVal = r
			}
			e.stop.Store(true)
			e.mu.Unlock()
		}
	}()
	limit := int64(e.cfg.MaxViolations)
	var h *harness
	for !e.stop.Load() && e.found.Load() < limit {
		k := int(e.next.Add(1) - 1)
		if k >= len(e.chunks) {
			break
		}
		c := &e.chunks[k]
		for idx := k * chunkSize; idx < min((k+1)*chunkSize, e.total); idx++ {
			e.cfg.schedule(idx, steps)
			if h == nil {
				h = takeHarness(e.cfg, &c.reach)
			} else {
				h.reach = &c.reach
				h.reset()
			}
			v := h.run(steps)
			c.gsEntries += h.st.GSEntries
			c.giEntries += h.st.GIEntries
			c.fallbacks += h.st.ScribbleFallbacks
			if v == nil {
				e.fps[idx] = h.fingerprint()
				continue
			}
			h = nil
			v.Schedule = slices.Clone(steps)
			c.viols = append(c.viols, chunkViolation{idx: idx, v: *v, at: c.tally})
			e.found.Add(1)
			if len(c.viols) >= e.cfg.MaxViolations {
				break // the rest of the chunk lies past the cap
			}
		}
	}
	if h != nil {
		h.park()
	}
}

// merge assembles the Result a single loop over the indices returns: the
// chunks in index order, each violation-free schedule's fingerprint folded
// in order, and, if the violation cap is reached, everything up to and
// including the schedule that reached it.
func (e *exploration) merge() Result {
	res := Result{Schedules: e.total, Fingerprint: fnvOffset}
	for k := range e.chunks {
		c := &e.chunks[k]
		idx := k * chunkSize
		for _, cv := range c.viols {
			for ; idx < cv.idx; idx++ {
				res.Fingerprint = mix(res.Fingerprint, e.fps[idx])
			}
			idx++ // a failed schedule adds no fingerprint
			res.Violations = append(res.Violations, cv.v)
			if len(res.Violations) >= e.cfg.MaxViolations {
				cv.at.addTo(&res)
				return res
			}
		}
		for end := min((k+1)*chunkSize, e.total); idx < end; idx++ {
			res.Fingerprint = mix(res.Fingerprint, e.fps[idx])
		}
		c.addTo(&res)
	}
	return res
}

// testbeds is the process-wide free list of parked testbeds, by core count:
// a testbed outlives the exploration that built it, so neither the next
// exploration's workers nor a mutant's sweep build their own. Explorations
// run concurrently (the mutation runner evaluates mutants side by side), so
// a mutex guards it.
var testbeds = struct {
	sync.Mutex
	free map[int][]*harness
}{free: map[int][]*harness{}}

// maxParked caps the free list per core count; a testbed parked beyond it
// is left to the collector.
const maxParked = 64

// takeHarness returns a testbed for cfg whose controllers mark the rows they
// dispatch in reach, ready for its first schedule: a parked one re-pointed
// at cfg and rewound, or a new one.
func takeHarness(cfg Config, reach *Reach) *harness {
	testbeds.Lock()
	var h *harness
	if free := testbeds.free[cfg.Cores]; len(free) > 0 {
		h = free[len(free)-1]
		free[len(free)-1] = nil
		testbeds.free[cfg.Cores] = free[:len(free)-1]
	}
	testbeds.Unlock()
	if h == nil {
		return newHarness(cfg, reach)
	}
	h.retarget(cfg, reach)
	return h
}

// park puts a testbed whose last schedule ran violation-free on the free
// list. A testbed is parked as its last schedule left it and rewound when
// taken, since only then is the next address set known.
func (h *harness) park() {
	h.reach = nil
	testbeds.Lock()
	defer testbeds.Unlock()
	if free := testbeds.free[h.cfg.Cores]; len(free) < maxParked {
		testbeds.free[h.cfg.Cores] = append(free, h)
	}
}

// retarget points a parked testbed (same core count) at cfg and reach and
// rewinds it: the address-indexed records are resized, every component is
// reset and the new addresses seeded, and then — on reset controllers, the
// only ones that may switch — the directory and the L1s take cfg's table.
func (h *harness) retarget(cfg Config, reach *Reach) {
	h.cfg, h.reach = cfg, reach
	n := len(cfg.Addrs)
	h.written = slices.Grow(h.written[:0], n)[:n]
	h.expected = slices.Grow(h.expected[:0], n)[:n]
	h.approxStored = slices.Grow(h.approxStored[:0], n)[:n]
	h.reset()
	h.dir.SetProtocol(cfg.Protocol)
	for _, l1 := range h.l1s {
		l1.SetProtocol(cfg.Protocol)
	}
}

// RunSchedule runs one explicit schedule on a fresh testbed under cfg and
// returns its violation, if any. This is the fuzzing entry point: issue
// orders and depths beyond the exhaustive enumeration come in here.
func RunSchedule(cfg Config, steps []Step) *Violation {
	h := newHarness(cfg, &Reach{})
	if v := h.run(steps); v != nil {
		v.Schedule = append([]Step(nil), steps...)
		return v
	}
	return nil
}

// FNV-1a constants; the fingerprint is an order-sensitive fold so that
// "which schedule produced which outcome" is part of the digest.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// mix folds one 64-bit value into the digest, byte by byte.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// stepLimit bounds the events fired per wait so a livelocking protocol
// variant reads as a deadlock violation instead of hanging the checker.
const stepLimit = 200_000

// dirNode places the directory on a corner of the default 6x4 mesh, away
// from the core nodes (ids 0..cores-1).
const dirNode = noc.NodeID(5)

// harness is one testbed: real controllers on a real mesh, plus the
// checker's write log and missing-transition recorder.
type harness struct {
	cfg Config
	// reach is where the controllers mark the rows they dispatch; Explore
	// re-points it at each chunk's tally.
	reach  *Reach
	eng    *sim.Engine
	net    *noc.Network
	ch     *dram.Channel
	dir    *coherence.Directory
	l1s    []*coherence.L1
	st     *stats.Stats
	meter  *energy.Meter
	back   *mem.Memory
	done   int
	issued int
	// coreBusy mirrors the blocking core model: a core issues its next op
	// only after its previous op's completion callback has fired (L1.Busy
	// alone clears one latency-cycle earlier, while the completion event is
	// still in flight).
	coreBusy []bool
	// ops holds each core's operation record: a blocking core has one
	// outstanding, so issue overwrites it in place. inflight is the schedule
	// step that record carries, and doneFns the core's completion callback,
	// bound once here rather than per issue.
	ops      []coherence.CoreOp
	inflight []issuedStep
	doneFns  []func(uint64)
	missing  []string
	// written logs every value the schedule stored or scribbled per address
	// index, seeded with the address's initial value. Valid cached words
	// must come from here.
	written [][]uint64
	// expected tracks the last conventionally stored value per address; in
	// precise sequential schedules it is the unique coherent value after
	// every step.
	expected []uint64
	// approxStored marks addresses a StoreApprox targeted: GS/GI absorb
	// approximate conventional stores without the scribe comparator (§3.2),
	// so the d-distance drift bound does not apply to those addresses.
	approxStored []bool
	// stepVals records each step's completion value (the loaded value, or
	// the stored one) for the per-step audits and the fingerprint.
	stepVals []uint64
	// precise marks schedules built only from Load/Store: their outcome is
	// exactly sequential-consistent, so the audits can demand equality
	// instead of d-distance bands.
	precise bool
	// valueViol records the first in-flight data-value violation (checked in
	// completion callbacks, reported once the run returns).
	valueViol *Violation
	// prevGS/prevGI snapshot the residency-entry counters at the previous
	// sequential step, so the per-step audit can tie a counted entry to the
	// copy it must have installed.
	prevGS, prevGI uint64
	// spoiled marks a testbed whose last schedule failed: it may hold
	// pending events, a busy line or a message a half-run dispatch never
	// recycled, so it is never rewound or parked.
	spoiled bool
}

// issuedStep is a schedule step in flight at a core.
type issuedStep struct {
	step Step
	idx  int
}

// newHarness builds a testbed whose controllers mark every table row they
// dispatch in reach. The controllers share one message pool, as a machine's
// do: a quiesced testbed has handed every message back, so a rewound one
// sends from the pool instead of allocating, and a testbed dropped after a
// violation takes its pool — and whatever a half-run schedule left out of
// it — along.
func newHarness(cfg Config, reach *Reach) *harness {
	h := &harness{cfg: cfg, reach: reach, eng: &sim.Engine{}, st: &stats.Stats{}, meter: &energy.Meter{}, back: mem.New()}
	h.net = noc.New(h.eng, noc.DefaultConfig(), h.meter, h.st)
	h.ch = dram.NewChannel(h.eng, h.back, h.meter, h.st)
	pool := &coherence.MsgPool{}
	h.dir = coherence.NewDirectory(0, dirNode, h.eng, h.net, coherence.DirConfig{
		BlockSize: 64,
		Proto:     cfg.Protocol,
		OnMissing: func(s proto.DirState, ev proto.Event) {
			h.missing = append(h.missing, fmt.Sprintf("dir: %v/%v", s, ev))
		},
		OnDispatch: func(s proto.DirState, ev proto.Event) { h.reach.Dir[s][ev-proto.EvGETS] = true },
	}, h.ch, h.meter, h.st)
	h.dir.UsePool(pool)
	home := func(mem.Addr) noc.NodeID { return dirNode }
	for i := 0; i < cfg.Cores; i++ {
		i := i
		l1 := coherence.NewL1(i, h.eng, h.net, coherence.L1Config{
			Cache: cache.Config{SizeBytes: 4 * 64, Ways: 2, BlockSize: 64},
			Proto: cfg.Protocol,
			OnMissing: func(s cache.State, ev proto.Event) {
				h.missing = append(h.missing, fmt.Sprintf("l1 %d: %v/%v", i, proto.L1StateName(s), ev))
			},
			OnDispatch: func(s cache.State, ev proto.Event) { h.reach.L1[s][ev] = true },
		}, home, h.meter, h.st)
		l1.UsePool(pool)
		h.l1s = append(h.l1s, l1)
		h.doneFns = append(h.doneFns, func(val uint64) { h.opDone(i, val) })
	}
	for node := 0; node < h.net.Nodes(); node++ {
		node := noc.NodeID(node)
		h.net.Register(node, func(p any) {
			m := p.(*coherence.Msg)
			if m.ToDir {
				h.dir.HandleMsg(m)
				return
			}
			h.l1s[int(node)].HandleMsg(m)
		})
	}
	h.written = make([][]uint64, len(cfg.Addrs))
	h.expected = make([]uint64, len(cfg.Addrs))
	h.approxStored = make([]bool, len(cfg.Addrs))
	h.coreBusy = make([]bool, cfg.Cores)
	h.ops = make([]coherence.CoreOp, cfg.Cores)
	h.inflight = make([]issuedStep, cfg.Cores)
	h.seed()
	return h
}

// seed writes each address's initial value and its block's canary to
// backing memory and starts the write log and the last-store record from
// the value.
func (h *harness) seed() {
	for ai, a := range h.cfg.Addrs {
		v := baseValue(ai)
		h.back.WriteUint(a, 4, v)
		h.back.WriteUint(a+canaryOffset, 4, canary(ai))
		h.written[ai] = append(h.written[ai][:0], v)
		h.expected[ai] = v
	}
}

// reset rewinds a testbed whose last schedule ran violation-free — so the
// event queue is empty, the directory quiesced with no request retained,
// no L1 busy, and every message back in the pool — to the state newHarness
// leaves, keeping every allocation. Equality with a new testbed holds per
// component: the engine is back at cycle 0 with its counters zeroed, every
// link and the DRAM channel free at cycle 0, backing memory zero but for
// the seeds, every cache frame empty over zeroed data with cleared PLRU
// bits, every transaction field of the controllers zero, no directory line
// tracked, and the statistics and energy the components share zeroed.
func (h *harness) reset() {
	if h.spoiled {
		panic("check: rewinding a testbed whose last schedule failed")
	}
	h.eng.Reset()
	h.net.Reset()
	h.ch.Reset()
	h.back.Reset()
	h.dir.Reset()
	for _, l1 := range h.l1s {
		l1.Reset()
	}
	*h.st = stats.Stats{}
	*h.meter = energy.Meter{}
	h.done, h.issued = 0, 0
	clear(h.coreBusy)
	h.missing = h.missing[:0]
	clear(h.approxStored)
	h.valueViol = nil
	h.prevGS, h.prevGI = 0, 0
	h.seed()
}

// baseValue spaces the addresses' value bands far apart (bit 24 and up), so
// a word that leaks across addresses fails the membership invariant.
func baseValue(ai int) uint64 { return uint64(ai+1) << 24 }

// Every op is a 4-byte access at offset 0, so the op's word alone would let
// a copy that lost the rest of its block (a dropped fill) pass every audit.
// Each block also holds a canary at canaryOffset that no op writes and
// every readable copy must hold: nonzero and distinct per address.
const canaryOffset = 32

func canary(ai int) uint64 { return baseValue(ai) | 0xA5 }

// value picks the step's operand: near values share the band's high bits
// (within any d >= 3 of the base), far values flip bit 12+ (outside any
// d <= 12), and each step's value is unique so the write log stays exact.
func (h *harness) value(s Step, stepIdx int) uint64 {
	base := baseValue(s.Addr)
	if s.Op == ScribbleFar {
		return base + uint64(stepIdx+1)<<12
	}
	return base + uint64(stepIdx+1)
}

// member reports whether w was ever written to address index ai (or is its
// initial value).
func (h *harness) member(ai int, w uint64) bool {
	for _, v := range h.written[ai] {
		if v == w {
			return true
		}
	}
	return false
}

// runUntil fires events until pred holds, the queue drains, or the step
// limit trips (a livelock in a buggy table).
func (h *harness) runUntil(pred func() bool) bool {
	for i := 0; i < stepLimit; i++ {
		if pred() {
			return true
		}
		if !h.eng.Step() {
			return pred()
		}
	}
	return pred()
}

// drain fires events until the queue is empty; a queue that will not empty
// within the step budget is a livelock violation (self-perpetuating
// messages — nothing in the checker's testbed legitimately self-schedules;
// the GI sweep is never armed).
func (h *harness) drain() *Violation {
	h.runUntil(func() bool { return false })
	if p := h.eng.Pending(); p > 0 {
		return &Violation{Kind: "livelock", Detail: fmt.Sprintf(
			"event queue still holds %d events after %d steps%s", p, stepLimit, h.missingSuffix())}
	}
	return nil
}

// run executes one schedule to quiescence and checks the invariants.
// The GI sweep is never armed: the checker's event queue must drain so
// deadlocks are observable, and GI reclamation timing is a timeout policy,
// not a protocol transition. A panic anywhere in the protocol engine
// (stray message asserts, nil transitions) is reported as a violation so a
// mutant table cannot crash the sweep.
func (h *harness) run(steps []Step) (viol *Violation) {
	defer func() {
		if r := recover(); r != nil {
			viol = &Violation{Kind: "panic", Detail: fmt.Sprint(r)}
		}
		h.spoiled = viol != nil
	}()
	h.stepVals = slices.Grow(h.stepVals[:0], len(steps))[:len(steps)]
	clear(h.stepVals)
	h.precise = true
	for _, s := range steps {
		if s.Op != Load && s.Op != Store {
			h.precise = false
			break
		}
	}
	for i, s := range steps {
		l1, c := h.l1s[s.Core], s.Core
		if !h.runUntil(func() bool { return !h.coreBusy[c] && !l1.Busy() }) {
			return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
				"core %d never went idle before step %d (%s)%s", s.Core, i, s, h.missingSuffix())}
		}
		prior := h.stateOf(s.Core, s.Addr)
		h.issue(s, i)
		if h.cfg.Sequential {
			if !h.runUntil(func() bool { return h.done == h.issued }) {
				return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
					"step %d (%s) never completed%s", i, s, h.missingSuffix())}
			}
			// Quiesce fully (trailing writebacks/unblocks), then audit the
			// step's data-value outcome against the sequential semantics.
			if v := h.drain(); v != nil {
				return v
			}
			if h.valueViol != nil {
				return h.valueViol
			}
			if v := h.auditStep(s, i, prior); v != nil {
				return v
			}
		}
	}
	if !h.runUntil(func() bool { return h.done == h.issued }) {
		return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
			"%d of %d ops never completed%s", h.issued-h.done, h.issued, h.missingSuffix())}
	}
	// Drain the trailing acks/unblocks completely, then audit the final
	// state.
	if v := h.drain(); v != nil {
		return v
	}
	if h.valueViol != nil {
		return h.valueViol
	}
	return h.checkQuiescent()
}

func (h *harness) missingSuffix() string {
	if len(h.missing) == 0 {
		return ""
	}
	return "; dropped: " + strings.Join(h.missing, ", ")
}

// opDone is core c's completion callback: it retires the step in flight
// there with the value the L1 completed it with.
func (h *harness) opDone(c int, val uint64) {
	s, stepIdx := h.inflight[c].step, h.inflight[c].idx
	h.done++
	h.coreBusy[c] = false
	h.stepVals[stepIdx] = val
	if s.Op == Load && h.valueViol == nil && !h.member(s.Addr, val) {
		h.valueViol = &Violation{Kind: "value", Detail: fmt.Sprintf(
			"step %d (%s): load returned %#x, never written to a%d", stepIdx, s, val, s.Addr)}
	}
}

func (h *harness) issue(s Step, stepIdx int) {
	op := &h.ops[s.Core]
	*op = coherence.CoreOp{Addr: h.cfg.Addrs[s.Addr], Width: 4, DDist: -1, Done: h.doneFns[s.Core]}
	h.inflight[s.Core] = issuedStep{s, stepIdx}
	switch s.Op {
	case Load:
		op.Kind = coherence.OpLoad
	case Store:
		op.Kind = coherence.OpStore
	case StoreApprox:
		op.Kind = coherence.OpStore
		op.DDist = h.cfg.DDist
		h.approxStored[s.Addr] = true
	case ScribbleNear, ScribbleFar:
		op.Kind = coherence.OpScribble
		op.DDist = h.cfg.DDist
	}
	if s.Op != Load {
		op.Value = h.value(s, stepIdx)
		h.written[s.Addr] = append(h.written[s.Addr], op.Value)
		if s.Op == Store {
			h.expected[s.Addr] = op.Value
		}
	}
	h.issued++
	h.coreBusy[s.Core] = true
	h.l1s[s.Core].Access(op)
}

// stateOf is the core's current cached state for the address index, with
// Absent standing in for a missing tag.
func (h *harness) stateOf(core, ai int) cache.State {
	if b := h.l1s[core].Array().Lookup(h.cfg.Addrs[ai]); b != nil {
		return b.State
	}
	return proto.Absent
}

// approxCopies scans every core for GS/GI copies of any tracked address.
func (h *harness) approxCopies() (anyGS, anyGI bool) {
	for _, l1 := range h.l1s {
		for _, a := range h.cfg.Addrs {
			if b := l1.Array().Lookup(a); b != nil {
				switch b.State {
				case cache.GS:
					anyGS = true
				case cache.GI:
					anyGI = true
				}
			}
		}
	}
	return
}

// auditStep checks one quiesced sequential step's data-value outcome.
// Precise schedules (Load/Store only) are sequentially consistent by
// construction: after every step each address's coherent word must equal
// its last store, and a load must have returned it exactly — this is the
// "load returns the last globally-visible store" obligation, and it
// catches lost writebacks the state audits cannot see. Mixed schedules may
// hide values in GS (within d of coherent unless the table is Resident) or
// GI copies; anything else returning a non-coherent value is a violation.
// It also ties the residency-entry counters to the machine's structure:
// a GS/GI copy without a counted entry (or a counted entry that installed
// no copy) means a table edge is teleporting blocks into or out of the
// approximate states without the scribe-comparator gate.
func (h *harness) auditStep(s Step, i int, prior cache.State) *Violation {
	fail := func(format string, args ...any) *Violation {
		return &Violation{Kind: "value", Detail: fmt.Sprintf(format, args...)}
	}
	failInv := func(format string, args ...any) *Violation {
		return &Violation{Kind: "invariant", Detail: fmt.Sprintf(format, args...)}
	}
	gsDelta, giDelta := h.st.GSEntries-h.prevGS, h.st.GIEntries-h.prevGI
	h.prevGS, h.prevGI = h.st.GSEntries, h.st.GIEntries
	anyGS, anyGI := h.approxCopies()
	switch {
	case anyGS && h.st.GSEntries == 0:
		return failInv("after step %d (%s): a GS copy exists but no GS entry was ever counted", i, s)
	case anyGI && h.st.GIEntries == 0:
		return failInv("after step %d (%s): a GI copy exists but no GI entry was ever counted", i, s)
	case gsDelta > 0 && !anyGS:
		return failInv("step %d (%s) counted a GS entry but installed no GS copy", i, s)
	case giDelta > 0 && !anyGI:
		return failInv("step %d (%s) counted a GI entry but installed no GI copy", i, s)
	}
	v := h.stepVals[i]
	if s.Op == ScribbleFar {
		// A dissimilar scribble fails the scribe comparator, so it may not
		// *enter* GS/GI: it either escalates to a coherent store or is
		// absorbed by a residency that already existed (every table but
		// gw-escalate skips the comparator on GI-resident blocks, and a
		// Resident table skips it on GS).
		cur := h.stateOf(s.Core, s.Addr)
		if coh := h.coherentWord(h.cfg.Addrs[s.Addr]); coh != v {
			switch {
			case cur == cache.GI && prior == cache.GI:
			case cur == cache.GS && h.cfg.Protocol.Resident && prior == cache.GS:
			default:
				return failInv("step %d (%s): far scribble %#x neither published (coherent %#x) nor absorbed by a pre-existing residency (%v -> %v)",
					i, s, v, coh, proto.L1StateName(prior), proto.L1StateName(cur))
			}
		}
	}
	if h.precise {
		for aj := range h.cfg.Addrs {
			if coh := h.coherentWord(h.cfg.Addrs[aj]); coh != h.expected[aj] {
				return fail("after step %d (%s): coherent word of a%d is %#x, want last store %#x",
					i, s, aj, coh, h.expected[aj])
			}
		}
		if s.Op == Load && v != h.expected[s.Addr] {
			return fail("step %d (%s): load returned %#x, want last store %#x",
				i, s, v, h.expected[s.Addr])
		}
		return nil
	}
	if s.Op == Store {
		// A conventional store (outside any approximate region) escalates
		// from every state — including GS/GI residency — so once its step
		// quiesces it must be the globally visible value.
		if coh := h.coherentWord(h.cfg.Addrs[s.Addr]); coh != v {
			return fail("step %d (%s): conventional store of %#x left coherent word %#x",
				i, s, v, coh)
		}
		return nil
	}
	if s.Op != Load {
		return nil
	}
	coh := h.coherentWord(h.cfg.Addrs[s.Addr])
	if v == coh {
		return nil
	}
	b := h.l1s[s.Core].Array().Lookup(h.cfg.Addrs[s.Addr])
	st := proto.Absent
	if b != nil {
		st = b.State
	}
	switch st {
	case cache.GI:
		return nil // hidden GI value; bounded only by the timeout policy
	case cache.GS:
		if h.cfg.Protocol.Resident || h.approxStored[s.Addr] {
			return nil
		}
		if approx.Within(v, coh, 32, h.cfg.DDist) {
			return nil
		}
		return fail("step %d (%s): GS load returned %#x, beyond d=%d of coherent %#x",
			i, s, v, h.cfg.DDist, coh)
	}
	return fail("step %d (%s): load returned %#x but the coherent word is %#x and the copy is %v, not GS/GI",
		i, s, v, coh, proto.L1StateName(st))
}

// checkQuiescent audits the drained machine against the invariants: what
// the run left undone first, then per address the structural audit every
// simulated machine is also held to (coherence.AuditBlock: invariants 1–3
// and 8) and the value audits only a schedule's write log can make.
func (h *harness) checkQuiescent() *Violation {
	fail := func(format string, args ...any) *Violation {
		return &Violation{Kind: "invariant", Detail: fmt.Sprintf(format, args...)}
	}
	if len(h.missing) > 0 {
		return &Violation{Kind: "missing-transition", Detail: strings.Join(h.missing, ", ")}
	}
	if !h.dir.Quiesced() {
		return fail("directory still busy after the queue drained")
	}
	for c, l1 := range h.l1s {
		if l1.Busy() {
			return fail("core %d still busy after the queue drained", c)
		}
	}
	for ai, a := range h.cfg.Addrs {
		if err := coherence.AuditBlock(h.l1s, h.dir, a); err != nil {
			return fail("a%d: %v", ai, err)
		}
		for c, l1 := range h.l1s {
			b := l1.Array().Lookup(a)
			if b == nil {
				continue
			}
			switch {
			case b.State == cache.GS && h.st.GSEntries == 0:
				return fail("core %d holds a%d in GS but no GS entry was ever counted", c, ai)
			case b.State == cache.GI && h.st.GIEntries == 0:
				return fail("core %d holds a%d in GI but no GI entry was ever counted", c, ai)
			}
			if v := h.checkWord(ai, a, c, b); v != nil {
				return v
			}
		}
	}
	return nil
}

// coherentWord is the system-wide value of a at quiescence: the owner's
// copy if one exists, else the directory/L2 line, else backing memory.
func (h *harness) coherentWord(a mem.Addr) uint64 {
	for _, l1 := range h.l1s {
		if b := l1.Array().Lookup(a); b != nil &&
			(b.State == cache.Modified || b.State == cache.Exclusive) {
			return b.ReadWord(l1.Array().Offset(a), 4)
		}
	}
	return h.backingWord(a)
}

// backingWord is the L2 line's word (or backing memory when the L2 never
// cached the block). It reads the raw line even while the block is owned:
// a PUTM writeback lands in the L2 line, not backing DRAM, and a later
// Exclusive grant is filled from that line.
func (h *harness) backingWord(a mem.Addr) uint64 {
	if data, ok := h.dir.LineData(a); ok {
		return mem.DecodeUint(data[:4])
	}
	return h.back.ReadUint(a, 4)
}

// checkWord audits one cached copy's data: any readable copy must hold its
// block's canary, its word must be a value the schedule wrote there,
// coherent copies must equal the coherent word, and a GS copy (whose
// residency re-runs the comparator unless the table is Resident) must stay
// within d-distance of it.
func (h *harness) checkWord(ai int, a mem.Addr, c int, b *cache.Block) *Violation {
	if !b.State.ReadableLocally() {
		return nil
	}
	off := h.l1s[c].Array().Offset(a)
	if got := b.ReadWord(off+canaryOffset, 4); got != canary(ai) {
		return &Violation{Kind: "invariant", Detail: fmt.Sprintf(
			"core %d a%d (%v): canary %#x at offset %d, want %#x: the copy does not hold the block",
			c, ai, b.State, got, canaryOffset, canary(ai))}
	}
	w := b.ReadWord(off, 4)
	if !h.member(ai, w) {
		return &Violation{Kind: "invariant", Detail: fmt.Sprintf(
			"core %d a%d (%v): word %#x was never written to this address", c, ai, b.State, w)}
	}
	switch b.State {
	case cache.Shared:
		if coh := h.coherentWord(a); w != coh {
			return &Violation{Kind: "invariant", Detail: fmt.Sprintf(
				"core %d a%d: Shared copy %#x diverges from coherent %#x", c, ai, w, coh)}
		}
	case cache.GS:
		if h.cfg.Protocol.Resident || h.approxStored[ai] {
			// A Resident table skips the comparator during residency, and
			// approximate conventional stores are absorbed without it
			// (§3.2): drift is unbounded by design on those paths.
			return nil
		}
		if coh := h.coherentWord(a); !approx.Within(w, coh, 32, h.cfg.DDist) {
			return &Violation{Kind: "invariant", Detail: fmt.Sprintf(
				"core %d a%d: GS hidden word %#x beyond d=%d of coherent %#x",
				c, ai, w, h.cfg.DDist, coh)}
		}
	}
	return nil
}

// fingerprint digests one violation-free schedule's architectural outcome:
// every step's completion value plus, per address, the coherent word, the
// directory record, and each core's cached state and word. Statistics,
// energy, replacement order, and the hidden-write counter are excluded on
// purpose: mutating those must classify as equivalent. Exclusive and
// Modified hash to the same token: the dirty bit is a writeback-avoidance
// optimization, not architecture (invariant 8 pins the dangerous direction
// — dirty data in E — directly), so conservatively dirtying a clean
// exclusive copy is equivalent, too.
func (h *harness) fingerprint() uint64 {
	f := fnvOffset
	for i, v := range h.stepVals {
		f = mix(f, uint64(i))
		f = mix(f, v)
	}
	for ai, a := range h.cfg.Addrs {
		f = mix(f, uint64(ai))
		f = mix(f, h.coherentWord(a))
		f = mix(f, uint64(h.dir.State(a)))
		f = mix(f, uint64(h.dir.Owner(a)+1))
		for _, w := range h.dir.Sharers(a) {
			f = mix(f, w)
		}
		for _, l1 := range h.l1s {
			b := l1.Array().Lookup(a)
			if b == nil {
				f = mix(f, 0)
				continue
			}
			st := b.State
			if st == cache.Exclusive {
				st = cache.Modified
			}
			f = mix(f, 1+uint64(st))
			if b.State.ReadableLocally() {
				f = mix(f, b.ReadWord(l1.Array().Offset(a), 4))
			}
		}
	}
	return f
}
