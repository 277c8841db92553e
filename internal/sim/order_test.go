package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential tests of the wheel-and-heap scheduler against a reference model
// that keeps every pending event in one list and fires the least (at, seq).

// NextAt is what the tests observe of the engine's peek: the cycle of the
// next event to fire, and whether one is pending.
func (e *Engine) NextAt() (Cycle, bool) {
	h := e.peek()
	return h.at, h.ok
}

// sched is the surface the tests drive; Engine and refEngine implement it.
type sched interface {
	Now() Cycle
	At(at Cycle, fn Event)
	After(delay Cycle, fn Event)
	AtArg(at Cycle, h func(any), arg any)
	AfterArg(delay Cycle, h func(any), arg any)
	Step() bool
	RunTo(deadline Cycle)
	Drain(limit uint64) (uint64, bool)
	NextAt() (Cycle, bool)
	Pending() int
	Fired() uint64
}

type refEvent struct {
	at  Cycle
	seq uint64
	fn  Event
	h   func(any)
	arg any
}

// refEngine is the reference model: the documented behaviour of Engine with
// no data structure to get wrong.
type refEngine struct {
	now     Cycle
	seq     uint64
	fired   uint64
	pending []refEvent
}

func (r *refEngine) add(ev refEvent) {
	if ev.at < r.now {
		panic("refEngine: event scheduled in the past")
	}
	r.seq++
	ev.seq = r.seq
	r.pending = append(r.pending, ev)
}

func (r *refEngine) Now() Cycle                         { return r.now }
func (r *refEngine) At(at Cycle, fn Event)              { r.add(refEvent{at: at, fn: fn}) }
func (r *refEngine) After(d Cycle, fn Event)            { r.At(r.now+d, fn) }
func (r *refEngine) AtArg(at Cycle, h func(any), a any) { r.add(refEvent{at: at, h: h, arg: a}) }
func (r *refEngine) AfterArg(d Cycle, h func(any), a any) {
	r.AtArg(r.now+d, h, a)
}
func (r *refEngine) Pending() int  { return len(r.pending) }
func (r *refEngine) Fired() uint64 { return r.fired }

// least returns the index of the pending event with the least (at, seq),
// or -1.
func (r *refEngine) least() int {
	best := -1
	for i, ev := range r.pending {
		if best < 0 || ev.at < r.pending[best].at ||
			ev.at == r.pending[best].at && ev.seq < r.pending[best].seq {
			best = i
		}
	}
	return best
}

func (r *refEngine) NextAt() (Cycle, bool) {
	if i := r.least(); i >= 0 {
		return r.pending[i].at, true
	}
	return 0, false
}

func (r *refEngine) Step() bool {
	i := r.least()
	if i < 0 {
		return false
	}
	ev := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	r.now = ev.at
	r.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h(ev.arg)
	}
	return true
}

func (r *refEngine) RunTo(deadline Cycle) {
	for {
		at, ok := r.NextAt()
		if !ok || at > deadline {
			if deadline > r.now {
				r.now = deadline
			}
			return
		}
		r.Step()
	}
}

func (r *refEngine) Drain(limit uint64) (fired uint64, drained bool) {
	for len(r.pending) > 0 {
		if fired >= limit {
			return fired, false
		}
		r.Step()
		fired++
	}
	return fired, true
}

// diffDelays are the distances programs schedule and run ahead by: the
// same cycle, across the wheel (255–257 and 511–512 straddle bitmap-word
// boundaries), the GI-sweep period, both sides of the wheel horizon, and
// deep into the heap.
var diffDelays = []Cycle{
	0, 1, 2, 3, 100, 255, 256, 257, 300, 511, 512, 600,
	1024, 2047, 2048, 2049, 65536, 70000, 1 << 20,
}

// diffBudget bounds the events one program schedules.
const diffBudget = 1500

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// tierCoverage records which corners of the scheduler a set of programs
// reached on the real engine.
type tierCoverage struct {
	heap          bool // an event in the heap
	tie           bool // the heap head and a wheel event at one cycle
	shortDeadline bool // a RunTo deadline short of the heap head, with the heap next to fire
}

// diffRun interprets one program against one scheduler, logging every
// firing and every observation the driver makes.
type diffRun struct {
	tb     testing.TB
	s      sched
	seed   uint64
	budget int
	nextID int
	log    []string
	cov    *tierCoverage // set only for the real engine
}

func (d *diffRun) schedule(delayIdx, kind int) {
	if d.budget == 0 {
		return
	}
	d.budget--
	id := d.nextID
	d.nextID++
	delay := diffDelays[delayIdx%len(diffDelays)]
	switch kind & 3 {
	case 0:
		d.s.At(d.s.Now()+delay, func() { d.fire(id) })
	case 1:
		d.s.After(delay, func() { d.fire(id) })
	case 2:
		d.s.AtArg(d.s.Now()+delay, d.fireArg, id)
	case 3:
		d.s.AfterArg(delay, d.fireArg, id)
	}
}

func (d *diffRun) fireArg(arg any) { d.fire(arg.(int)) }

// fire is every event's callback: log the firing, then schedule zero to
// two more events — at the firing cycle, within the wheel, or across epoch
// and horizon boundaries — as a fixed function of the seed and the id.
func (d *diffRun) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("fire %d @%d", id, d.s.Now()))
	r := splitmix64(d.seed + uint64(id))
	for n := r % 3; n > 0; n-- {
		r = splitmix64(r)
		d.schedule(int(r>>8&0xffff), int(r>>4))
	}
}

// observe logs everything the scheduler lets a caller see, and checks that
// looking does not move the clock.
func (d *diffRun) observe(op string) {
	now := d.s.Now()
	at, ok := d.s.NextAt()
	if at2, ok2 := d.s.NextAt(); at2 != at || ok2 != ok || d.s.Now() != now {
		d.tb.Errorf("after %s: NextAt is not side-effect free: (%d,%v) then (%d,%v), Now %d then %d",
			op, at, ok, at2, ok2, now, d.s.Now())
	}
	d.log = append(d.log, fmt.Sprintf("%s: now=%d pending=%d fired=%d next=%d,%v",
		op, now, d.s.Pending(), d.s.Fired(), at, ok))
	if e, isEngine := d.s.(*Engine); isEngine && d.cov != nil && len(e.overflow) > 0 {
		d.cov.heap = true
		if h := e.overflow[0].at; h < e.now+wheelSize {
			w := e.slots[int(h)&wheelMask].head
			d.cov.tie = d.cov.tie || w != nil && w.at == h
		}
	}
}

// deadline turns a program byte into a RunTo deadline ahead of the clock.
func (d *diffRun) deadline(arg byte) Cycle {
	dl := d.s.Now() + diffDelays[int(arg)%len(diffDelays)]
	if e, isEngine := d.s.(*Engine); isEngine && d.cov != nil {
		h := e.peek()
		d.cov.shortDeadline = d.cov.shortDeadline || h.heap && dl > e.now && dl < h.at
	}
	return dl
}

// run interprets prog as (op, arg) byte pairs and then drains.
func (d *diffRun) run(prog []byte) {
	d.budget = diffBudget
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		kind := int(op >> 3)
		switch op & 7 {
		case 0, 1, 2:
			d.schedule(int(arg), kind)
			d.observe("schedule")
		case 3:
			ok := d.s.Step()
			d.observe(fmt.Sprintf("Step=%v", ok))
		case 4:
			dl := d.deadline(arg)
			d.s.RunTo(dl)
			d.observe(fmt.Sprintf("RunTo(%d)", dl))
		case 5:
			dl := d.deadline(arg)
			// The window scheduler's shape: drain from the front peeked
			// last time, then keep the front the drain stopped at.
			var next Cycle
			var ok bool
			if e, isEngine := d.s.(*Engine); isEngine {
				h := e.runTo(e.peek(), dl)
				if p := e.peek(); p != h {
					d.tb.Errorf("runTo(%d) stopped at front %+v, peek says %+v", dl, h, p)
				}
				next, ok = h.at, h.ok
			} else {
				d.s.RunTo(dl)
				next, ok = d.s.NextAt()
			}
			d.observe(fmt.Sprintf("RunTo(%d);NextAt=%d,%v", dl, next, ok))
		case 6:
			fired, drained := d.s.Drain(uint64(arg % 32))
			d.observe(fmt.Sprintf("Drain(%d)=%d,%v", arg%32, fired, drained))
		case 7:
			// A burst of equal-deadline events.
			for n := int(arg>>5) + 2; n > 0; n-- {
				d.schedule(int(arg&31), kind+n)
			}
			d.observe("burst")
		}
	}
	fired, drained := d.s.Drain(4 * diffBudget)
	d.observe(fmt.Sprintf("final Drain=%d,%v", fired, drained))
	if !drained {
		d.tb.Errorf("program did not drain: %d events still pending", d.s.Pending())
	}
}

// diffProgram runs prog on a new engine and on the reference model and
// reports the first point where what a caller sees differs.
func diffProgram(tb testing.TB, seed uint64, prog []byte, cov *tierCoverage) {
	tb.Helper()
	diffProgramOn(tb, &Engine{}, seed, prog, cov)
}

// diffProgramOn is diffProgram on the caller's engine, which must read as
// new: at cycle 0 with nothing pending and nothing fired.
func diffProgramOn(tb testing.TB, e *Engine, seed uint64, prog []byte, cov *tierCoverage) {
	tb.Helper()
	real := &diffRun{tb: tb, s: e, seed: seed, cov: cov}
	real.run(prog)
	ref := &diffRun{tb: tb, s: &refEngine{}, seed: seed}
	ref.run(prog)
	for i := 0; i < len(real.log) || i < len(ref.log); i++ {
		var got, want string
		if i < len(real.log) {
			got = real.log[i]
		}
		if i < len(ref.log) {
			want = ref.log[i]
		}
		if got != want {
			from := i - 5
			if from < 0 {
				from = 0
			}
			tb.Fatalf("seed %d, log entry %d:\n  engine %q\n  model  %q\nagreed before on:\n  %q",
				seed, i, got, want, ref.log[from:i])
		}
	}
}

// TestEngineDifferential drives random programs through the engine and the
// model, and checks that between them they reached the heap, a wheel/heap
// tie at one cycle, and a RunTo deadline short of the heap head — where
// RunTo must carry the clock to the deadline and no further.
func TestEngineDifferential(t *testing.T) {
	var cov tierCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(prog)
		diffProgram(t, seed, prog, &cov)
	}
	if !cov.heap || !cov.tie || !cov.shortDeadline {
		t.Errorf("programs did not reach every corner: %+v", cov)
	}
}

// TestEngineResetDifferential runs the same programs on one engine, rewound
// by Reset between them: with its recycled free list and its heap slice
// grown, it must match the model from cycle 0 exactly as a new engine does.
func TestEngineResetDifferential(t *testing.T) {
	e := &Engine{}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(prog)
		diffProgramOn(t, e, seed, prog, nil)
		e.Reset()
		if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 {
			t.Fatalf("after Reset: now=%d fired=%d pending=%d", e.Now(), e.Fired(), e.Pending())
		}
	}
	if e.free == nil || cap(e.overflow) == 0 {
		t.Errorf("the programs left no storage for Reset to keep: free=%v cap(overflow)=%d",
			e.free != nil, cap(e.overflow))
	}
}

// TestEngineResetPendingPanics pins Reset's precondition in both tiers: an
// event left on the wheel or in the heap would sit at the wrong distance
// from the rewound clock.
func TestEngineResetPendingPanics(t *testing.T) {
	for _, tc := range []struct {
		tier  string
		delay Cycle
		held  func(e *Engine) int
	}{
		{"wheel", 1024, func(e *Engine) int { return e.wheelCount }},
		{"heap", 1 << 20, func(e *Engine) int { return len(e.overflow) }},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			var e Engine
			e.After(tc.delay, func() {})
			if tc.held(&e) != 1 {
				t.Fatalf("delay %d did not land in the %s tier", tc.delay, tc.tier)
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "1 events pending") {
					t.Fatalf("Reset with a pending %s event: recovered %v, want a pending-events panic", tc.tier, r)
				}
			}()
			e.Reset()
		})
	}
}

// FuzzEngineOrder is the differential test on fuzzer-chosen programs.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(7), []byte{0x00, 17, 0x08, 13, 0x10, 12, 0x18, 6, 0x05, 11, 0x03, 0, 0x06, 3})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		diffProgram(t, seed, prog, nil)
	})
}

// TestEngineTwoTierTie pins the order at one cycle that holds heap events
// and wheel events scheduled before and during the cycle: oldest first,
// which is every heap event, then the wheel-native ones, then what the
// heap events scheduled for that cycle as they fired.
func TestEngineTwoTierTie(t *testing.T) {
	const target = Cycle(70000) // beyond the wheel horizon from cycle 0
	var e Engine
	var got []string
	rec := func(s string) Event { return func() { got = append(got, s) } }

	e.At(target, func() {
		got = append(got, "heap 1")
		e.At(target, rec("heap's child")) // wheel tail: the youngest
	})
	if len(e.overflow) != 1 {
		t.Fatalf("event at %d from cycle 0 is not in the heap", target)
	}
	e.At(10000, func() {
		e.At(target, rec("heap 2"))
		e.At(target+3, rec("heap, later cycle"))
	})
	e.At(target-10, func() {
		e.At(target, rec("wheel"))
		e.At(target+3, rec("wheel, later cycle"))
		if e.wheelCount != 2 || len(e.overflow) != 3 {
			t.Errorf("at %d: wheel %d, heap %d, want 2 and 3", e.Now(), e.wheelCount, len(e.overflow))
		}
	})
	if _, drained := e.Drain(100); !drained {
		t.Fatal("did not drain")
	}
	want := []string{"heap 1", "heap 2", "wheel", "heap's child", "heap, later cycle", "wheel, later cycle"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// TestEngineEqualDeadlineTimers is the shape the GI sweep had with a timer
// per L1: 256 timers armed together, each re-arming itself 1024 cycles on,
// over wheel traffic. They fire in arming order every period (the order
// coherence.Sweeper keeps with one event in their place), and the wheel's
// horizon holds them all: the heap stays empty.
func TestEngineEqualDeadlineTimers(t *testing.T) {
	const timers, period, periods = 256, 1024, 6
	var e Engine
	var got []int
	var arm func(i int)
	arm = func(i int) {
		e.After(period, func() {
			got = append(got, i)
			if len(e.overflow) != 0 {
				t.Errorf("cycle %d: %d events in the heap", e.Now(), len(e.overflow))
			}
			if e.Now() < period*periods {
				arm(i)
			}
		})
	}
	for i := 0; i < timers; i++ {
		arm(i)
	}
	var hop func()
	hop = func() {
		if e.Now() < period*periods {
			e.After(7, hop)
		}
	}
	e.At(0, hop)
	if e.wheelCount != timers+1 || len(e.overflow) != 0 {
		t.Fatalf("after arming: wheel %d, heap %d; want %d and 0", e.wheelCount, len(e.overflow), timers+1)
	}
	if _, drained := e.Drain(1 << 20); !drained {
		t.Fatal("did not drain")
	}
	if len(got) != timers*periods {
		t.Fatalf("%d timer firings, want %d", len(got), timers*periods)
	}
	for k, id := range got {
		if id != k%timers {
			t.Fatalf("firing %d is timer %d, want %d", k, id, k%timers)
		}
	}
}
