package coherence

import "ghostwriter/internal/sim"

// Sweeper is the machine's GI timeout: one timer for every L1 instead of
// one per L1. Each armed event is a *group*, the controllers whose next
// visit falls at the same cycle because they were armed together with the
// same period; firing it visits them in core order (L1.sweep dispatches
// Timeout on each GI block and adapts the controller's period), then
// re-arms them grouped by their next period. With a fixed period that is
// one event per period for the whole machine.
//
// A group's one event fires the same visits, in the same place among every
// other event, as a self-re-arming timer per L1 would. Such timers are
// armed back to back in core order, and a visit sends and schedules
// nothing (the GI/Timeout rows only count and change state), so the timers
// due at one cycle are contiguous in (at, seq) and re-arm back to back in
// core order: a group is such a run. See DESIGN.md §4.2.
type Sweeper struct {
	eng      *sim.Engine
	l1s      []*L1
	on       bool
	armed    int         // group events pending, live or disarmed
	free     *sweepGroup // recycled group records
	fireFn   func(any)
	resident int  // GI blocks over all the controllers (L1.countGI)
	adaptive bool // some controller adapts its period

	// AfterVisit, when set, runs after each group's visit and re-arm. The
	// machine uses it to end a run that only sweeps can still wake.
	AfterVisit func()
}

// sweepGroup is one armed event's controllers, linked through
// L1.sweepNext in core order. next links the groups one re-arm builds,
// and the free list.
type sweepGroup struct {
	head, tail *L1
	period     sim.Cycle
	next       *sweepGroup
}

// NewSweeper builds a disarmed sweeper over l1s, which all schedule on eng.
// It comes with the one group record a fixed period ever needs, so a run
// allocates nothing for its sweep; adaptive periods grow the free list.
func NewSweeper(eng *sim.Engine, l1s []*L1) *Sweeper {
	s := &Sweeper{eng: eng, l1s: l1s, free: &sweepGroup{}}
	s.fireFn = s.fire
	for _, l := range l1s {
		l.sweeper = s
		s.resident += l.giBlocks
		s.adaptive = s.adaptive || l.cfg.AdaptiveGITimeout
	}
	return s
}

// Start arms the sweep of every controller whose table has GI rows and
// whose period is not 0, each at its current period (a no-op on a running
// sweeper). The machine starts it at the beginning of a run and stops it at
// the end, once the last thread is done, so the event queue can drain.
func (s *Sweeper) Start() {
	if s.on {
		return
	}
	if s.armed > 0 {
		panic("coherence: Sweeper.Start with disarmed sweeps still pending")
	}
	s.on = true
	var head, tail *L1
	for _, l := range s.l1s {
		l.sweepNext = nil // a disarmed group's links outlive its event
		if l.cfg.GITimeout == 0 || !l.proto.HasGI() {
			continue
		}
		if tail == nil {
			head = l
		} else {
			tail.sweepNext = l
		}
		tail = l
	}
	s.arm(head)
}

// Stop disarms the sweep. Its pending group events still fire, as no-ops,
// when the queue drains.
func (s *Sweeper) Stop() { s.on = false }

// Armed reports the group events pending on the engine.
func (s *Sweeper) Armed() int { return s.armed }

// fire is a group's event: visit its controllers in core order, then
// re-arm them. A group whose controllers all kept their period (always,
// with a fixed one) is re-armed as it is. With a fixed period and no GI
// block anywhere every visit would do nothing, so none is made.
func (s *Sweeper) fire(arg any) {
	g := arg.(*sweepGroup)
	s.armed--
	if !s.on {
		s.release(g)
		return
	}
	adapted := false
	if s.resident > 0 || s.adaptive {
		for l := g.head; l != nil; l = l.sweepNext {
			adapted = l.sweep() || adapted
		}
	}
	if adapted {
		head := g.head
		s.release(g)
		s.arm(head)
	} else {
		s.schedule(g)
	}
	if s.AfterVisit != nil {
		s.AfterVisit()
	}
}

// schedule arms g's event one period on.
func (s *Sweeper) schedule(g *sweepGroup) {
	s.armed++
	s.eng.AfterArg(g.period, s.fireFn, g)
}

// release returns g to the free list.
func (s *Sweeper) release(g *sweepGroup) {
	*g = sweepGroup{next: s.free}
	s.free = g
}

// arm schedules the controllers listed from l (in core order) in one group
// per distinct current period, keeping core order within each group.
// Distinct periods land on distinct cycles, so the order the groups are
// scheduled in never matters.
func (s *Sweeper) arm(l *L1) {
	var groups *sweepGroup
	for l != nil {
		next := l.sweepNext
		l.sweepNext = nil
		g := groups
		for g != nil && g.period != l.curTimeout {
			g = g.next
		}
		if g == nil {
			g = s.free
			if g == nil {
				g = &sweepGroup{}
			} else {
				s.free = g.next
			}
			*g = sweepGroup{period: l.curTimeout, next: groups}
			groups = g
		}
		if g.tail == nil {
			g.head = l
		} else {
			g.tail.sweepNext = l
		}
		g.tail = l
		l = next
	}
	for g := groups; g != nil; {
		next := g.next
		g.next = nil
		s.schedule(g)
		g = next
	}
}
