package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential tests of the three-tier scheduler against a reference model
// that keeps every pending event in one list and fires the least (at, seq).

// sched is the surface the tests drive; Engine and refEngine implement it.
type sched interface {
	Now() Cycle
	At(at Cycle, fn Event)
	After(delay Cycle, fn Event)
	AtArg(at Cycle, h func(any), arg any)
	AfterArg(delay Cycle, h func(any), arg any)
	Step() bool
	RunTo(deadline Cycle)
	runTo(deadline Cycle) (Cycle, bool)
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

func (r *refEngine) runTo(deadline Cycle) (Cycle, bool) {
	for {
		at, ok := r.NextAt()
		if !ok || at > deadline {
			if deadline > r.now {
				r.now = deadline
			}
			return at, ok
		}
		r.Step()
	}
}

func (r *refEngine) RunTo(deadline Cycle) { r.runTo(deadline) }

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
// same cycle, the wheel, both sides of the wheel horizon and of the next
// epoch boundaries, the GI-sweep period, both sides of the level-2 horizon,
// and the heap.
var diffDelays = []Cycle{
	0, 1, 2, 3, 100, 255, 256, 257, 300, 511, 512, 600,
	1024, 65535, 65536, 66000, 70000, 1 << 20,
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
	heap, far, allThree bool
	midEpochDeadline    bool // a RunTo deadline inside the earliest far epoch, before its first event
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
	if e, isEngine := d.s.(*Engine); isEngine && d.cov != nil {
		d.cov.heap = d.cov.heap || len(e.overflow) > 0
		d.cov.far = d.cov.far || e.farCount > 0
		d.cov.allThree = d.cov.allThree || len(e.overflow) > 0 && e.farCount > 0 && e.wheelCount > 0
	}
}

// deadline turns a program byte into a RunTo deadline ahead of the clock.
func (d *diffRun) deadline(arg byte) Cycle {
	dl := d.s.Now() + diffDelays[int(arg)%len(diffDelays)]
	if e, isEngine := d.s.(*Engine); isEngine && d.cov != nil && e.farCount > 0 &&
		dl < e.farMin && dl>>wheelBits == e.farMin>>wheelBits {
		d.cov.midEpochDeadline = true
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
			next, ok := d.s.runTo(dl)
			d.observe(fmt.Sprintf("runTo(%d)=%d,%v", dl, next, ok))
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
// model, and checks that between them they reached every tier, all three
// at once, and a RunTo deadline inside an epoch that was not cascaded.
func TestEngineDifferential(t *testing.T) {
	var cov tierCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(prog)
		diffProgram(t, seed, prog, &cov)
	}
	if !cov.heap || !cov.far || !cov.allThree || !cov.midEpochDeadline {
		t.Errorf("programs did not reach every corner: %+v", cov)
	}
}

// TestEngineResetDifferential runs the same programs on one engine, rewound
// by Reset between them: with its recycled free list, its far array already
// allocated and its heap slice grown, it must match the model from cycle 0
// exactly as a new engine does.
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
	if e.far == nil || e.free == nil || cap(e.overflow) == 0 {
		t.Errorf("the programs left no storage for Reset to keep: far=%v free=%v cap(overflow)=%d",
			e.far != nil, e.free != nil, cap(e.overflow))
	}
}

// TestEngineResetPendingPanics pins Reset's precondition in every tier: an
// event left on the wheel, in a far slot or in the heap would sit at the
// wrong distance from the rewound clock.
func TestEngineResetPendingPanics(t *testing.T) {
	for _, tc := range []struct {
		tier  string
		delay Cycle
		held  func(e *Engine) int
	}{
		{"wheel", 3, func(e *Engine) int { return e.wheelCount }},
		{"far", 1024, func(e *Engine) int { return e.farCount }},
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

// TestEngineThreeTierTie pins the order at one cycle that holds a heap
// event, a far event, and wheel events scheduled before and during the
// cycle: oldest first, which is heap, far, wheel.
func TestEngineThreeTierTie(t *testing.T) {
	const target = Cycle(70000) // beyond the level-2 horizon from cycle 0
	var e Engine
	var got []string
	rec := func(s string) Event { return func() { got = append(got, s) } }

	e.At(target, func() {
		got = append(got, "heap")
		e.At(target, rec("heap's child")) // wheel tail: the youngest
	})
	if len(e.overflow) != 1 {
		t.Fatalf("event at %d from cycle 0 is not in the heap", target)
	}
	e.At(10000, func() {
		e.At(target, rec("far 1"))
		e.At(target+3, rec("far, later cycle"))
		e.At(target, rec("far 2"))
		if e.farCount != 3 {
			t.Errorf("events at %d from cycle %d: farCount = %d, want 3", target, e.Now(), e.farCount)
		}
	})
	e.At(target-10, func() {
		e.At(target, rec("wheel"))
		e.At(target+3, rec("wheel, later cycle"))
		if e.farCount != 3 || len(e.overflow) != 1 {
			t.Errorf("at %d: farCount = %d, heap = %d, want 3 and 1", e.Now(), e.farCount, len(e.overflow))
		}
	})
	if _, drained := e.Drain(100); !drained {
		t.Fatal("did not drain")
	}
	want := []string{"heap", "far 1", "far 2", "wheel", "heap's child", "far, later cycle", "wheel, later cycle"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// TestEngineRunToInsideFarEpoch: a deadline that falls in the epoch of the
// earliest far slot, before the slot's first event, must leave the slot
// alone — cascading it would carry the clock past the deadline.
func TestEngineRunToInsideFarEpoch(t *testing.T) {
	var e Engine
	var got []string
	rec := func(s string) Event { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	e.At(600, rec("far"))
	next, ok := e.runTo(520)
	if e.Now() != 520 || !ok || next != 600 || len(got) != 0 || e.farCount != 1 {
		t.Fatalf("runTo(520): Now=%d next=%d,%v fired=%q farCount=%d; want 520, 600,true, none, 1",
			e.Now(), next, ok, got, e.farCount)
	}
	e.At(600, rec("wheel"))
	e.After(50, rec("near"))
	e.After(256, rec("next epoch")) // 776: filed far while slot 2 is still occupied
	e.RunTo(1000)
	want := "[near@570 far@600 wheel@600 next epoch@776]"
	if fmt.Sprint(got) != want || e.Now() != 1000 {
		t.Fatalf("fired %v, Now=%d; want %s, 1000", got, e.Now(), want)
	}
}

// TestEngineEqualDeadlineTimers is the machine's GI-sweep shape: 256
// timers armed together, each re-arming itself 1024 cycles on, over wheel
// traffic. They fire in arming order every period and never touch the heap.
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
	if e.farCount != timers {
		t.Fatalf("farCount = %d after arming, want %d", e.farCount, timers)
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
