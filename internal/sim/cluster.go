// Cluster runs every tile of the machine on one Engine and adds the one
// thing a bare engine lacks: a deterministic place for cross-tile effects.
//
// Time advances in lookahead windows on a grid anchored at cycle 0 (width
// = the minimum cross-tile message latency). Inside a window [W, W+L)
// tile-local work schedules straight onto the shared wheel and fires in
// (at, seq) order; a cross-tile effect is *staged* instead of applied. At
// the window barrier the staged effects replay in (at, source tile, staging
// index) order, scheduling their consequences at cycles ≥ W+L — never
// inside the window just drained. That barrier order is the simulated
// schedule every fingerprint pins: link arbitration sees same-cycle sends
// lowest tile first, not in firing order. DESIGN.md §12 has the argument;
// refCluster in refcluster_test.go is the executable specification.
package sim

// StagedHandler is a cross-tile effect applied at a window barrier. at is
// the cycle the effect was staged; arg and aux ride along uninterpreted.
// Handlers run with the engine quiescent, so they may touch any tile, but
// anything they schedule must land at or after the barrier
// (Cluster.Horizon) — the cycle the next window starts.
type StagedHandler func(at Cycle, arg any, aux uint64)

// staged is one queued cross-tile effect; the source tile rides in the
// record so the barrier can recover the (at, tile, index) order.
type staged struct {
	at   Cycle
	tile int32
	h    StagedHandler
	arg  any
	aux  uint64
}

// WindowStats is a snapshot of the cluster's window-scheduling counters.
// The values describe how the simulation was *driven*, not what it
// computed, so they stay out of fingerprints and cached results. Steals
// and FastPath are constants kept for benchmark/, which reads them.
type WindowStats struct {
	Windows   uint64 // lookahead windows drained (after empty-window skip)
	Merges    uint64 // barriers that applied staged cross-tile effects
	Staged    uint64 // staged effects applied across all barriers
	Events    uint64 // events fired inside window drains
	MaxWindow uint64 // most events fired in a single window
	Steals    uint64 // always 0
	FastPath  bool   // always true
}

// Cluster is one Engine advancing in lockstep lookahead windows, with a
// staging buffer replayed at each window barrier.
type Cluster struct {
	eng       Engine
	tiles     int
	lookahead Cycle
	base      Cycle // start of the next window (multiple of lookahead)
	horizon   Cycle // end of the window being merged; 0 outside a barrier

	box []staged // effects staged in the current window, in staging order

	// next caches the engine's next pending cycle between steps; it goes
	// stale (nextValid false) whenever events may have been scheduled
	// outside a step — between runs.
	next      Cycle
	nextOK    bool
	nextValid bool

	windows         uint64
	merges          uint64
	stagedApplied   uint64
	events          uint64
	maxWindowEvents uint64
}

// NewCluster builds a cluster of the given tile count advancing in windows
// of the given lookahead. The third parameter was a shard count and is
// ignored; it stays until benchmark/ stops passing it.
func NewCluster(tiles int, lookahead Cycle, _ int) *Cluster {
	if tiles <= 0 {
		panic("sim: cluster needs at least one tile")
	}
	if lookahead < 1 {
		panic("sim: cluster lookahead must be at least one cycle")
	}
	return &Cluster{eng: Engine{minSched: noMinSched}, tiles: tiles, lookahead: lookahead}
}

// Tiles returns the tile count.
func (c *Cluster) Tiles() int { return c.tiles }

// Lookahead returns the window width in cycles.
func (c *Cluster) Lookahead() Cycle { return c.lookahead }

// Tile returns the engine tile i's components schedule tile-local work on
// — the same engine for every tile.
func (c *Cluster) Tile(int) *Engine { return &c.eng }

// Now returns the current simulated cycle: the engine's clock, or the next
// window start once a drain has carried the grid past it.
func (c *Cluster) Now() Cycle {
	if n := c.eng.Now(); n > c.base {
		return n
	}
	return c.base
}

// Horizon returns the cycle the next window starts at. It is only
// meaningful inside a barrier, where staged handlers use it to place
// follow-up events on the first legal cycle.
func (c *Cluster) Horizon() Cycle { return c.horizon }

// Fired returns the total events fired.
func (c *Cluster) Fired() uint64 { return c.eng.Fired() }

// WindowStats returns a snapshot of the window-scheduling counters,
// cumulative since construction.
func (c *Cluster) WindowStats() WindowStats {
	return WindowStats{
		Windows:   c.windows,
		Merges:    c.merges,
		Staged:    c.stagedApplied,
		Events:    c.events,
		MaxWindow: c.maxWindowEvents,
		FastPath:  true,
	}
}

// Stage queues a cross-tile effect from the given source tile, stamped
// with the current cycle. It must be called from an event (during a window
// drain); the handler runs at the next window barrier. Staging from a
// barrier handler is a protocol violation — the window it would belong to
// has already been merged.
func (c *Cluster) Stage(tile int, h StagedHandler, arg any, aux uint64) {
	if c.horizon != 0 {
		panic("sim: Stage called during a window merge")
	}
	// One clock: at is non-decreasing across appends, so the buffer is
	// already at-sorted and the barrier only has to order equal-cycle runs
	// by tile.
	c.box = append(c.box, staged{at: c.eng.Now(), tile: int32(tile), h: h, arg: arg, aux: aux})
}

// stepFast drains one lookahead window — one fused runTo — and replays its
// barrier if anything was staged. merged reports whether a barrier ran (the
// only transitions where cross-tile state changes); idle reports a fully
// drained cluster (nothing fired, nothing merged).
func (c *Cluster) stepFast() (merged, idle bool) {
	e := &c.eng
	if !c.nextValid {
		c.next, c.nextOK = e.NextAt()
		e.minSched = noMinSched
		c.nextValid = true
	}
	if !c.nextOK {
		return false, true
	}
	if c.next >= c.base+c.lookahead {
		// Skip empty windows: jump to the grid-aligned window containing
		// the earliest event. The grid is anchored at cycle 0 in multiples
		// of the lookahead, so the jump target is independent of history.
		c.base = c.next / c.lookahead * c.lookahead
	}
	end := c.base + c.lookahead
	f0 := e.fired
	next, ok := e.runTo(end - 1)
	// runTo's return is exact, so drop drain-phase scheduling tracking and
	// re-arm for the barrier handlers.
	e.minSched = noMinSched
	fired := e.fired - f0
	c.windows++
	c.events += fired
	if fired > c.maxWindowEvents {
		c.maxWindowEvents = fired
	}
	if len(c.box) > 0 {
		c.stagedApplied += uint64(len(c.box))
		c.mergeFast(end)
		if m := e.takeMinSched(); m != noMinSched && (!ok || m < next) {
			next, ok = m, true
		}
		c.merges++
		merged = true
	}
	c.next, c.nextOK = next, ok
	c.base = end
	return merged, false
}

// mergeFast applies the staging buffer in (at, source tile, staging index)
// order. The buffer is at-sorted by construction (one monotone clock), so
// a stable insertion pass that only reorders equal-at runs by tile yields
// the canonical order. end is the next window start, published as Horizon
// for the handlers.
func (c *Cluster) mergeFast(end Cycle) {
	c.horizon = end
	box := c.box
	for i := 1; i < len(box); i++ {
		s := box[i]
		j := i
		for j > 0 && box[j-1].at == s.at && box[j-1].tile > s.tile {
			box[j] = box[j-1]
			j--
		}
		box[j] = s
	}
	for i := range box {
		s := &box[i]
		h, at, arg, aux := s.h, s.at, s.arg, s.aux
		s.h, s.arg = nil, nil // release references; the buffer is reused
		h(at, arg, aux)
	}
	c.box = box[:0]
	c.horizon = 0
}

// Align advances the clock to the start of the next window, so that work
// scheduled between runs (machine kickoff events, post-run probes) lands
// on the window grid. Call only when the queue is empty — typically right
// after a successful Drain.
func (c *Cluster) Align() {
	c.eng.RunTo(c.base)
	c.nextValid = false
}

// RunUntil advances windows until the predicate holds or the queue drains.
// The predicate is evaluated at barriers that merged something and on idle
// — the only points where cross-tile state changes, so the only points
// where its value can flip. It returns true if the predicate was satisfied.
func (c *Cluster) RunUntil(done func() bool) bool {
	c.nextValid = false // events may have been scheduled since the last run
	for !done() {
		for {
			merged, idle := c.stepFast()
			if idle {
				return done()
			}
			if merged {
				break
			}
		}
	}
	return true
}

// Drain runs windows until the queue is empty, with a safety limit on the
// number of events fired to guard against livelock in a buggy model. It
// returns the events fired and whether it fully drained.
func (c *Cluster) Drain(limit uint64) (fired uint64, drained bool) {
	c.nextValid = false // events may have been scheduled since the last run
	start := c.events
	for {
		_, idle := c.stepFast()
		if idle {
			return c.events - start, true
		}
		if f := c.events - start; f > limit {
			return f, false
		}
	}
}
