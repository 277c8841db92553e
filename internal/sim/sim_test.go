package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(5, func() { got = append(got, 5) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.Drain(100)
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired order %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestFIFOWithinCycle(t *testing.T) {
	// Events at the same cycle fire in insertion order.
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Drain(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle order %v not FIFO", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var e Engine
	var trace []Cycle
	e.At(2, func() {
		trace = append(trace, e.Now())
		e.After(3, func() { trace = append(trace, e.Now()) })
	})
	e.Drain(100)
	if len(trace) != 2 || trace[0] != 2 || trace[1] != 5 {
		t.Fatalf("trace = %v, want [2 5]", trace)
	}
}

func TestPastPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(3, func() {})
	})
	e.Drain(100)
}

func TestDrainLimit(t *testing.T) {
	var e Engine
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.At(0, reschedule)
	fired, drained := e.Drain(50)
	if drained {
		t.Error("self-rescheduling queue reported drained")
	}
	if fired != 50 {
		t.Errorf("fired = %d, want 50", fired)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	hits := 0
	for i := Cycle(1); i <= 10; i++ {
		e.At(i, func() { hits++ })
	}
	ok := e.RunUntil(func() bool { return hits == 4 })
	if !ok || hits != 4 {
		t.Fatalf("RunUntil stopped at hits=%d ok=%v", hits, ok)
	}
	ok = e.RunUntil(func() bool { return hits == 100 })
	if ok || hits != 10 {
		t.Fatalf("RunUntil on drained queue: hits=%d ok=%v", hits, ok)
	}
}

// Property: for any random schedule, events fire in nondecreasing cycle
// order and the engine clock equals the last event's cycle.
func TestScheduleProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		times := make([]Cycle, n)
		var fired []Cycle
		for i := 0; i < n; i++ {
			times[i] = Cycle(rng.Intn(100))
			at := times[i]
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Drain(uint64(n) + 1)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != n {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunTo(t *testing.T) {
	var e Engine
	fired := []Cycle{}
	// A periodic self-rescheduling event plus two one-shots.
	var periodic func()
	periodic = func() { fired = append(fired, e.Now()); e.After(100, periodic) }
	e.At(100, periodic)
	e.At(5, func() { fired = append(fired, e.Now()) })
	e.At(42, func() { fired = append(fired, e.Now()) })
	e.RunTo(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 42 {
		t.Fatalf("fired %v, want [5 42]", fired)
	}
	// The periodic event is still queued, untouched.
	e.RunTo(250)
	if len(fired) != 4 || fired[2] != 100 || fired[3] != 200 {
		t.Fatalf("fired %v, want two periodic firings", fired)
	}
	// RunTo into the past is a no-op on the clock.
	e.RunTo(10)
	if e.Now() != 250 {
		t.Fatal("RunTo moved the clock backwards")
	}
}

// --- Engine edge cases on the timing-wheel scheduler ---

func TestEngineScheduleAtNowFromEvent(t *testing.T) {
	// An event scheduled at Now() from inside a firing event is legal (not
	// "the past") and fires in the same cycle, after all earlier same-cycle
	// events, in insertion order.
	var e Engine
	var got []string
	e.At(10, func() {
		got = append(got, "a")
		e.At(10, func() { got = append(got, "c") })
		e.At(e.Now(), func() { got = append(got, "d") })
	})
	e.At(10, func() { got = append(got, "b") })
	e.Drain(100)
	want := "abcd"
	have := ""
	for _, s := range got {
		have += s
	}
	if have != want {
		t.Fatalf("fired %q, want %q", have, want)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestEngineRunToPastDeadline(t *testing.T) {
	// A deadline at or before Now fires nothing and never rewinds the clock.
	var e Engine
	e.At(20, func() {})
	e.Step()
	fired := false
	e.At(30, func() { fired = true })
	e.RunTo(5)
	if e.Now() != 20 || fired {
		t.Fatalf("RunTo(5): Now=%d fired=%v, want 20/false", e.Now(), fired)
	}
	e.RunTo(20) // deadline == Now: also a no-op
	if e.Now() != 20 || fired {
		t.Fatalf("RunTo(Now): Now=%d fired=%v, want 20/false", e.Now(), fired)
	}
}

func TestEngineDrainExactLimit(t *testing.T) {
	// Exactly limit events pending: Drain fires them all and reports drained.
	var e Engine
	for i := Cycle(0); i < 50; i++ {
		e.At(i, func() {})
	}
	fired, drained := e.Drain(50)
	if !drained || fired != 50 || e.Pending() != 0 {
		t.Fatalf("Drain(50) over 50 events: fired=%d drained=%v pending=%d", fired, drained, e.Pending())
	}
	// One more pending than the limit: stops at the limit, not drained.
	var e2 Engine
	for i := Cycle(0); i < 51; i++ {
		e2.At(i, func() {})
	}
	fired, drained = e2.Drain(50)
	if drained || fired != 50 || e2.Pending() != 1 {
		t.Fatalf("Drain(50) over 51 events: fired=%d drained=%v pending=%d", fired, drained, e2.Pending())
	}
}

func TestEngineWheelOverflowBoundary(t *testing.T) {
	// Events exactly at, just below, and past the wheel horizon (the heap)
	// interleave correctly with near events, preserving (cycle, seq) order.
	var e Engine
	var got []Cycle
	rec := func() { got = append(got, e.Now()) }
	e.At(wheelSize-1, rec) // last wheel-resident cycle
	e.At(wheelSize, rec)   // first heap cycle
	e.At(wheelSize+1, rec)
	e.At(3*wheelSize+7, rec) // far future
	e.At(0, rec)
	if e.wheelCount != 2 || len(e.overflow) != 3 {
		t.Fatalf("wheel %d, heap %d; want 2 and 3", e.wheelCount, len(e.overflow))
	}
	e.Drain(100)
	want := []Cycle{0, wheelSize - 1, wheelSize, wheelSize + 1, 3*wheelSize + 7}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestEngineOverflowWheelSameCycleOrder(t *testing.T) {
	// A heap event and a later-inserted wheel-resident event at the same
	// cycle must fire in insertion (seq) order: the heap one first.
	var e Engine
	const target = Cycle(2 * wheelSize)
	var got []string
	e.At(target, func() { got = append(got, "overflow") }) // beyond the horizon: the heap
	var step func()
	step = func() {
		if e.Now() == target-10 {
			// target is now within the horizon: this lands in the wheel.
			e.At(target, func() { got = append(got, "wheel") })
			return
		}
		e.After(1, step)
	}
	e.At(0, step)
	e.Drain(10000)
	if len(got) != 2 || got[0] != "overflow" || got[1] != "wheel" {
		t.Fatalf("same-cycle cross-tier order %v, want [overflow wheel]", got)
	}
}

func TestEngineWheelWraparound(t *testing.T) {
	// Schedules spanning several wheel revolutions with same-slot collisions
	// (cycles congruent mod wheelSize) stay totally ordered.
	var e Engine
	var got []Cycle
	rec := func() { got = append(got, e.Now()) }
	var hop func()
	hop = func() {
		rec()
		if e.Now() < 5*wheelSize {
			e.After(wheelSize/2+1, hop) // crosses slot 0 repeatedly
		}
	}
	e.At(1, hop)
	e.Drain(10000)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("non-monotonic firing at %d: %v", i, got)
		}
	}
	if got[len(got)-1] < 5*wheelSize {
		t.Fatalf("walk ended early at %d", got[len(got)-1])
	}
}

func TestEngineAtArgOrdering(t *testing.T) {
	// AtArg events interleave with At closures in strict insertion order and
	// deliver their argument.
	var e Engine
	var got []int
	h := func(arg any) { got = append(got, arg.(int)) }
	e.AtArg(4, h, 1)
	e.At(4, func() { got = append(got, 2) })
	e.AfterArg(4, h, 3)
	e.Drain(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtArg order %v, want [1 2 3]", got)
	}
}

func TestEnginePastPanicMessage(t *testing.T) {
	// The past-scheduling panic must name both the offending and the
	// current cycle (chaos-test failures are undiagnosable otherwise).
	var e Engine
	e.At(17, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("scheduling in the past did not panic")
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T, want string", r)
			}
			if !strings.Contains(msg, "cycle 3") || !strings.Contains(msg, "cycle 17") {
				t.Fatalf("panic %q does not name both cycles", msg)
			}
		}()
		e.At(3, func() {})
	})
	e.Drain(10)
}

func TestEngineFiredCounter(t *testing.T) {
	var e Engine
	for i := Cycle(0); i < 7; i++ {
		e.At(i, func() {})
	}
	e.Drain(100)
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// TestEngineRecycleStress drives enough schedule/fire cycles through the
// wheel and the heap to exercise free-list recycling under interleaved load.
func TestEngineRecycleStress(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(42))
	var fired, scheduled int
	var pump func()
	pump = func() {
		fired++
		for i := 0; i < rng.Intn(3); i++ {
			if scheduled >= 5000 {
				return
			}
			scheduled++
			delay := Cycle(rng.Intn(4 * wheelSize))
			e.After(delay, pump)
		}
	}
	scheduled++
	e.At(0, pump)
	if _, drained := e.Drain(100000); !drained {
		t.Fatal("stress schedule did not drain")
	}
	if fired != scheduled {
		t.Fatalf("fired %d of %d scheduled", fired, scheduled)
	}
	if e.Fired() != uint64(fired) {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), fired)
	}
}

// TestEngineScheduleAtNowAtWheelWrap pins the same-cycle scheduling
// boundary at a wheel-slot wrap: a callback firing at a cycle whose slot
// index has wrapped (at % wheelSize == slot being drained, at >= wheelSize)
// must be able to schedule more work for the current cycle, and that work
// fires in the same cycle in insertion order — not a wheel revolution
// later, and without tripping the past-schedule panic.
func TestEngineScheduleAtNowAtWheelWrap(t *testing.T) {
	// Cover the wrap seam itself (slot 0 on its second revolution), the
	// last slot before the seam, and a mid-wheel slot two revolutions out.
	for _, at := range []Cycle{wheelSize, 2*wheelSize - 1, 2*wheelSize + 37} {
		var e Engine
		var got []Cycle
		e.At(at, func() {
			e.At(e.Now(), func() {
				got = append(got, e.Now())
				// Chain once more from the nested event: still same cycle.
				e.At(e.Now(), func() { got = append(got, e.Now()) })
			})
		})
		if _, drained := e.Drain(1000); !drained {
			t.Fatalf("at=%d: did not drain", at)
		}
		if len(got) != 2 || got[0] != at || got[1] != at {
			t.Fatalf("at=%d: nested events fired at %v, want [%d %d]", at, got, at, at)
		}
		if e.Now() != at {
			t.Fatalf("at=%d: Now = %d", at, e.Now())
		}
	}
}

// TestEngineSchedulesWithoutAllocating: on a warm engine, scheduling and
// firing an event allocates nothing, whether it carries a func value bound
// once (At/After, which ride as the argument of one shared handler) or a
// handler and a pointer argument (AtArg/AfterArg), and whether it fires
// through RunTo or Step.
func TestEngineSchedulesWithoutAllocating(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("event record is %d bytes, want 48", got)
	}
	var e Engine
	n := 0
	fn := func() { n++ }
	h := func(arg any) { *arg.(*int)++ }
	// Warm the free list past one chunk.
	for i := range Cycle(2 * chunkSize) {
		e.At(i, fn)
	}
	e.Drain(2 * chunkSize)
	cases := []struct {
		name     string
		schedule func()
	}{
		{"At", func() { e.At(e.Now()+1, fn) }},
		{"After", func() { e.After(2, fn) }},
		{"AtArg", func() { e.AtArg(e.Now()+1, h, &n) }},
		{"AfterArg", func() { e.AfterArg(2, h, &n) }},
	}
	fires := []struct {
		name string
		fire func()
	}{
		{"RunTo", func() { e.RunTo(e.Now() + 2) }},
		{"Step", func() { e.Step() }},
	}
	for _, c := range cases {
		for _, f := range fires {
			before := n
			allocs := testing.AllocsPerRun(100, func() {
				c.schedule()
				f.fire()
			})
			if allocs != 0 {
				t.Errorf("%s fired by %s: %.2f allocations per event, want 0", c.name, f.name, allocs)
			}
			if n == before || e.Pending() != 0 {
				t.Errorf("%s fired by %s: %d events fired, %d left pending", c.name, f.name, n-before, e.Pending())
			}
		}
	}
}
