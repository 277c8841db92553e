// Cluster shards the discrete-event engine by mesh tile for conservative
// parallel simulation.
//
// Each tile owns a private Engine (sim.go's two-level timing wheel, heap
// and free list) and fires only its own events. Time advances in
// lockstep windows of width = the cluster lookahead, the minimum cross-tile
// message latency: within a window [W, W+L) a tile may schedule freely into
// itself, but every cross-tile effect is *staged* into the source tile's
// outbox instead of being applied immediately. At the window barrier the
// coordinator merges all outboxes in a fixed (at, source tile, staging
// index) order and applies them, scheduling their consequences at cycles
// ≥ W+L — never inside the window just drained. Because no tile can
// observe another tile's activity except through staged effects, and the
// merge order is a pure function of simulated time, the global firing
// order is identical whether the tiles of a window are drained by one
// goroutine or by S shard workers: shard count changes wall-clock time
// only, never a single simulated byte. See DESIGN.md §12 for the lookahead
// proof sketch and the merge-order argument.
//
// Three scheduling modes share that contract:
//
//   - Fast path (effective shards == 1): every tile aliases one shared
//     Engine, so a window drain is a single fused runTo with no per-tile
//     scan, no partition-minimum fold, and no atomic staging counter.
//     Cross-tile effects collect in one buffer ordered by staging time and
//     are put into canonical (at, tile, index) order with a stable
//     insertion pass over equal-cycle runs. §12.7 argues schedule equality
//     with the windowed mode.
//   - Windowed sequential (test hook): the PR-7 per-tile layout drained by
//     the caller's goroutine. Reachable only through newCluster, kept as
//     the differential oracle for the fast path.
//   - Windowed sharded (shards ≥ 2): per-tile layout drained by a worker
//     pool. The coordinator builds each window's due-tile work list and
//     deals it into per-worker bounded deques; owners pop LIFO, idle
//     workers steal FIFO, so a hot tile no longer serializes its static
//     partition. Stealing moves whole-tile drains only — which goroutine
//     drains a tile is unobservable, so determinism is untouched.
//
// Windows whose barrier has no staged effects are *fused*: the merge
// bookkeeping, next-cache repair, and the RunUntil predicate are all
// skipped, and the next window start jumps straight to the grid window of
// the earliest pending event (the exact bound the per-shard pmin fold
// already computes). The predicate therefore runs only at merge barriers
// and on idle — the only points where cross-tile state can change.
package sim

import (
	"fmt"
	"sync/atomic"
)

// StagedHandler is a cross-tile effect applied during the window-barrier
// merge phase. at is the cycle the effect was staged (the source tile's
// clock at staging time); arg and aux ride along uninterpreted. Handlers
// run on the coordinator goroutine with every tile quiescent, so they may
// touch any tile, but anything they schedule must land at or after the
// merge horizon (Cluster.Horizon) — the cycle the next window starts.
type StagedHandler func(at Cycle, arg any, aux uint64)

// staged is one queued cross-tile effect. Per-tile outboxes are appended
// in firing order, so each is already sorted by at; the merge is a K-way
// scan over outbox heads.
type staged struct {
	at  Cycle
	h   StagedHandler
	arg any
	aux uint64
}

// fastStaged is a staged effect in fast-path mode, where one buffer serves
// every tile and the source tile rides in the record so the merge can
// recover the canonical (at, tile, index) order.
type fastStaged struct {
	at   Cycle
	tile int32
	h    StagedHandler
	arg  any
	aux  uint64
}

// WindowStats is a snapshot of the cluster's window-scheduling counters.
// The values describe how the simulation was *driven* — windows, barriers,
// steals — and are host- and shard-dependent in wall-clock-adjacent ways
// (steals depend on OS scheduling), so they must never feed a determinism
// fingerprint or a cached result. They exist to explain benchmark numbers.
type WindowStats struct {
	Windows     uint64 // lookahead windows drained (after empty-window skip)
	Merges      uint64 // barriers that applied staged cross-tile effects
	Staged      uint64 // staged effects applied across all merges
	Events      uint64 // events fired inside window drains
	MaxWindow   uint64 // most events fired in a single window
	Steals      uint64 // whole-tile drains claimed from another worker's deque
	InlineWaves uint64 // waves the coordinator drained without waking the pool
	FastPath    bool   // single-shard fast path active (one shared engine)
}

// Cluster is a set of per-tile Engines advancing in lockstep lookahead
// windows. Shards sets only the number of worker goroutines that drain
// tiles during a window — the simulated schedule is shard-count-invariant
// by construction.
type Cluster struct {
	tiles     []*Engine
	lookahead Cycle
	shards    int
	base      Cycle // start of the next window (multiple of lookahead)
	horizon   Cycle // end of the window being merged; 0 outside merge

	// Fast path (effective shards == 1): all tiles alias shared, staged
	// effects collect in fastbox, and fastNext caches the engine's next
	// pending cycle between steps (valid when nextValid).
	fast       bool
	shared     *Engine
	fastbox    []fastStaged
	fastNext   Cycle
	fastNextOK bool

	outbox  [][]staged   // per-source-tile staging buffers
	oidx    []int        // merge read cursors, one per outbox
	nstaged atomic.Int64 // effects staged in the current window (workers race on it)
	live    []int32      // merge scratch: tiles with unconsumed staged effects

	// next caches each tile's next pending event cycle (nextNone = empty
	// queue) so idle tiles are skipped without rescanning their wheels.
	// Entries stay valid between merges because only a tile's own drain
	// mutates its queue; nextValid goes false whenever events may have been
	// scheduled outside a drain (merge handlers, inter-run scheduling).
	// pmin[s] is the minimum next-event cycle over the tiles worker s
	// drained this wave and pfired[s] the events it fired; skipMin covers
	// the tiles the wave skipped, so the per-window global minimum costs
	// O(shards) instead of an O(tiles) rescan.
	next      []Cycle
	pmin      []Cycle
	pfired    []uint64
	skipMin   Cycle
	work      []int32 // due-tile work list for the current wave
	minCache  Cycle
	nextValid bool

	// Shard worker pool, live only inside RunUntil/Drain (persistent
	// goroutines would outlive the owning machine: tests build thousands).
	// Each worker owns deq[s]; idle workers steal whole-tile drains from
	// the other deques.
	deq     []tileDeque
	starts  []chan Cycle // per-shard window-start signal carrying the drain deadline
	dones   chan struct{}
	panics  []any // per-shard recovered panic, re-raised by the coordinator
	running bool

	// Window-occupancy counters behind WindowStats. steals is atomic
	// because workers race on it; the rest are coordinator-only.
	windows         uint64
	merges          uint64
	stagedApplied   uint64
	events          uint64
	maxWindowEvents uint64
	inlineWaves     uint64
	steals          atomic.Uint64
}

// NewCluster builds a cluster of tiles zero-valued Engines advancing in
// windows of the given lookahead. shards is clamped to [1, tiles]; at an
// effective shard count of 1 the cluster takes the single-shard fast path:
// every tile aliases one shared engine and the window machinery reduces to
// fused runTo drains (see the package comment and DESIGN.md §12.7).
func NewCluster(tiles int, lookahead Cycle, shards int) *Cluster {
	return newCluster(tiles, lookahead, shards, true)
}

// newCluster is NewCluster with the fast path explicitly selectable, so
// tests can build the windowed sequential layout (fast=false, shards=1) as
// a differential oracle against the fast path.
func newCluster(tiles int, lookahead Cycle, shards int, fast bool) *Cluster {
	if tiles <= 0 {
		panic("sim: cluster needs at least one tile")
	}
	if lookahead < 1 {
		panic("sim: cluster lookahead must be at least one cycle")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > tiles {
		shards = tiles
	}
	c := &Cluster{
		tiles:     make([]*Engine, tiles),
		lookahead: lookahead,
		shards:    shards,
		next:      make([]Cycle, tiles),
		pmin:      make([]Cycle, shards),
		pfired:    make([]uint64, shards),
		work:      make([]int32, 0, tiles),
	}
	if fast && shards == 1 {
		c.fast = true
		e := &Engine{minSched: noMinSched}
		e.SetLabel(fmt.Sprintf("shared engine (fast path, %d tiles)", tiles))
		c.shared = e
		for i := range c.tiles {
			c.tiles[i] = e
		}
		return c
	}
	c.outbox = make([][]staged, tiles)
	c.oidx = make([]int, tiles)
	c.live = make([]int32, 0, tiles)
	c.deq = make([]tileDeque, shards)
	for s := range c.deq {
		c.deq[s].buf = make([]int32, tiles)
	}
	for i := range c.tiles {
		e := &Engine{minSched: noMinSched}
		e.SetLabel(fmt.Sprintf("tile %d (shard %d of %d)", i, i%shards, shards))
		c.tiles[i] = e
	}
	return c
}

// Tiles returns the tile count.
func (c *Cluster) Tiles() int { return len(c.tiles) }

// Shards returns the worker-goroutine count windows are drained with.
func (c *Cluster) Shards() int { return c.shards }

// Lookahead returns the window width in cycles.
func (c *Cluster) Lookahead() Cycle { return c.lookahead }

// Tile returns tile i's engine. Components bound to tile i schedule
// tile-local work on it directly. In fast-path mode every tile returns the
// one shared engine.
func (c *Cluster) Tile(i int) *Engine { return c.tiles[i] }

// Now returns the current simulated cycle. All tiles share one clock at
// window boundaries; between boundaries only the draining workers see
// intermediate values.
func (c *Cluster) Now() Cycle {
	if n := c.tiles[0].Now(); n > c.base {
		return n
	}
	return c.base
}

// Horizon returns the cycle the next window starts at. It is only
// meaningful inside a merge phase, where staged handlers use it to place
// follow-up events on the first legal cycle.
func (c *Cluster) Horizon() Cycle { return c.horizon }

// Fired returns the total events fired across all tiles.
func (c *Cluster) Fired() uint64 {
	if c.fast {
		return c.shared.Fired()
	}
	var n uint64
	for _, t := range c.tiles {
		n += t.Fired()
	}
	return n
}

// WindowStats returns a snapshot of the window-scheduling counters,
// cumulative since construction. Safe to call between runs only (the
// coordinator owns most counters).
func (c *Cluster) WindowStats() WindowStats {
	return WindowStats{
		Windows:     c.windows,
		Merges:      c.merges,
		Staged:      c.stagedApplied,
		Events:      c.events,
		MaxWindow:   c.maxWindowEvents,
		Steals:      c.steals.Load(),
		InlineWaves: c.inlineWaves,
		FastPath:    c.fast,
	}
}

// Stage queues a cross-tile effect from the given source tile, stamped
// with the tile's current cycle. It must be called from code running on
// that tile (during a window drain); the handler runs at the next window
// barrier. Staging from a merge handler is a protocol violation — the
// window it would belong to has already been merged.
func (c *Cluster) Stage(tile int, h StagedHandler, arg any, aux uint64) {
	if c.horizon != 0 {
		panic("sim: Stage called during a window merge")
	}
	if c.fast {
		// One goroutine, one clock: at is non-decreasing across appends, so
		// the buffer is already at-sorted and the merge only has to order
		// equal-cycle runs by tile.
		c.fastbox = append(c.fastbox, fastStaged{at: c.shared.Now(), tile: int32(tile), h: h, arg: arg, aux: aux})
		return
	}
	c.outbox[tile] = append(c.outbox[tile], staged{at: c.tiles[tile].Now(), h: h, arg: arg, aux: aux})
	c.nstaged.Add(1)
}

// nextNone marks an empty tile queue in the next-cycle cache.
const nextNone = ^Cycle(0)

// minNext returns the earliest pending event cycle across tiles. Between
// windows the value is the cached fold of the drain-phase partition minima
// and the merge-phase scheduling minima; a full rescan happens only when
// events may have been scheduled outside a drain.
func (c *Cluster) minNext() (Cycle, bool) {
	if !c.nextValid {
		min := nextNone
		for i, t := range c.tiles {
			if at, has := t.NextAt(); has {
				c.next[i] = at
				if at < min {
					min = at
				}
			} else {
				c.next[i] = nextNone
			}
			t.minSched = noMinSched // the rescan is exact; drop stale tracking
		}
		c.minCache = min
		c.nextValid = true
	}
	return c.minCache, c.minCache != nextNone
}

// step drains one lookahead window and merges its barrier if anything was
// staged. merged reports whether a merge ran (the only transitions where
// cross-tile state changes); idle reports a fully drained cluster (nothing
// fired, nothing merged).
func (c *Cluster) step() (merged, idle bool) {
	if c.fast {
		return c.stepFast()
	}
	return c.stepWindowed()
}

// stepFast is step on the single-shard fast path: one shared engine, one
// fused runTo per window, one staging buffer. The window grid, barrier
// placement, and merge order are identical to the windowed mode — only the
// machinery is gone.
func (c *Cluster) stepFast() (merged, idle bool) {
	e := c.shared
	if !c.nextValid {
		c.fastNext, c.fastNextOK = e.NextAt()
		e.minSched = noMinSched
		c.nextValid = true
	}
	if !c.fastNextOK {
		return false, true
	}
	if c.fastNext >= c.base+c.lookahead {
		// Skip empty windows: jump to the grid-aligned window containing
		// the earliest event. The grid is anchored at cycle 0 in multiples
		// of the lookahead, identical to the windowed mode's jump.
		c.base = c.fastNext / c.lookahead * c.lookahead
	}
	end := c.base + c.lookahead
	f0 := e.fired
	next, ok := e.runTo(end - 1)
	// runTo's return is exact, so drop drain-phase scheduling tracking and
	// re-arm for the merge handlers.
	e.minSched = noMinSched
	fired := e.fired - f0
	c.windows++
	c.events += fired
	if fired > c.maxWindowEvents {
		c.maxWindowEvents = fired
	}
	if len(c.fastbox) > 0 {
		c.stagedApplied += uint64(len(c.fastbox))
		c.mergeFast(end)
		if m := e.takeMinSched(); m != noMinSched && (!ok || m < next) {
			next, ok = m, true
		}
		c.merges++
		merged = true
	}
	c.fastNext, c.fastNextOK = next, ok
	c.base = end
	return merged, false
}

// mergeFast applies the fast-path staging buffer in canonical (at, source
// tile, staging index) order. The buffer is at-sorted by construction
// (one goroutine, monotone clock), so a stable insertion pass that only
// reorders equal-at runs by tile recovers exactly the order the windowed
// merge's K-way head scan would produce.
func (c *Cluster) mergeFast(end Cycle) {
	c.horizon = end
	box := c.fastbox
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
	c.fastbox = box[:0]
	c.horizon = 0
}

// stepWindowed is step on the per-tile windowed layout (sequential or
// sharded).
func (c *Cluster) stepWindowed() (merged, idle bool) {
	min, ok := c.minNext()
	if !ok {
		return false, true
	}
	if min >= c.base+c.lookahead {
		// Skip empty windows: jump to the grid-aligned window containing
		// the earliest event. The grid is anchored at cycle 0 in multiples
		// of the lookahead, so the jump target — like everything else —
		// is independent of the shard count.
		c.base = min / c.lookahead * c.lookahead
	}
	end := c.base + c.lookahead
	c.drainWave(end - 1)
	// Fold the skipped-tile minimum with the per-worker drain minima and
	// fired counts the wave just computed.
	nmin := c.skipMin
	var fired uint64
	for s := 0; s < c.shards; s++ {
		if c.pmin[s] < nmin {
			nmin = c.pmin[s]
		}
		fired += c.pfired[s]
	}
	c.windows++
	c.events += fired
	if fired > c.maxWindowEvents {
		c.maxWindowEvents = fired
	}
	if n := c.nstaged.Load(); n > 0 {
		c.stagedApplied += uint64(n)
		c.merge(end)
		// Merge handlers schedule onto arbitrary tiles (including skipped
		// ones). Each tile tracked the lowest cycle scheduled on it, so the
		// cache is repaired with one compare per tile instead of a wheel
		// rescan: the post-merge minimum is min(pre-merge next, lowest
		// merged-in cycle).
		for i, t := range c.tiles {
			m := t.takeMinSched()
			if m < c.next[i] {
				c.next[i] = m
			}
			if m < nmin {
				nmin = m
			}
		}
		c.merges++
		merged = true
	}
	c.minCache = nmin
	c.base = end
	return merged, false
}

// inlineWaveMax is the largest due-tile count the coordinator drains
// itself rather than waking the worker pool: below it the channel
// handshake costs more than the drains.
const inlineWaveMax = 2

// drainWave advances every tile with work due to the deadline (firing all
// events at or before it), in parallel when shard workers are running. The
// coordinator scans the next-event cache once to build the wave's due-tile
// work list (folding the skipped tiles' minimum into skipMin), then either
// drains the list inline — when the pool is not running or the list is
// tiny — or deals it into the per-worker deques and releases the pool.
// Tiles whose cached next event lies past the deadline are skipped
// entirely — their clocks lag behind, which is safe: a tile's clock only
// gates its own scheduling (monotonic, so the engine's tier pop-order
// invariants hold), and every cross-tile effect lands at an absolute cycle
// ≥ the merge horizon. A panic on any worker is re-raised here on the
// coordinator once the wave completes, so model violations surface on the
// goroutine that called Run.
func (c *Cluster) drainWave(deadline Cycle) {
	work := c.work[:0]
	skipMin := nextNone
	for ti, n := range c.next {
		if n > deadline {
			if n < skipMin {
				skipMin = n
			}
			continue
		}
		work = append(work, int32(ti))
	}
	c.work = work
	c.skipMin = skipMin
	if !c.running || len(work) <= inlineWaveMax {
		if c.running {
			c.inlineWaves++
		}
		min := nextNone
		var fired uint64
		for _, ti := range work {
			c.drainTile(int(ti), deadline, &min, &fired)
		}
		c.pmin[0], c.pfired[0] = min, fired
		for s := 1; s < c.shards; s++ {
			c.pmin[s], c.pfired[s] = nextNone, 0
		}
		return
	}
	// Deal the due tiles into the workers' deques by home shard (the same
	// ti mod shards mapping the static partition used, for cache affinity
	// across waves). The owner drains its deque LIFO; workers that run dry
	// steal FIFO from the others, so an imbalanced wave no longer runs at
	// the speed of its slowest static partition.
	for s := range c.deq {
		c.deq[s].n = 0
	}
	for _, ti := range work {
		d := &c.deq[int(ti)%c.shards]
		d.buf[d.n] = ti
		d.n++
	}
	// Publishing top/bot after the fill is safe: workers are parked until
	// the start send below, which orders the writes before their reads.
	for s := range c.deq {
		c.deq[s].top.Store(0)
		c.deq[s].bot.Store(int64(c.deq[s].n))
	}
	for s := 0; s < c.shards; s++ {
		c.starts[s] <- deadline
	}
	var rethrow any
	for s := 0; s < c.shards; s++ {
		<-c.dones
	}
	for s := range c.panics {
		if c.panics[s] != nil {
			rethrow = c.panics[s]
			c.panics[s] = nil
		}
	}
	if rethrow != nil {
		panic(rethrow)
	}
}

// drainTile advances one tile to the deadline, folding its post-drain next
// cycle into *min and the events it fired into *fired. Concurrent callers
// always hold disjoint tiles (a tile leaves a deque exactly once), so the
// next-cache entry write never races.
func (c *Cluster) drainTile(ti int, deadline Cycle, min *Cycle, fired *uint64) {
	t := c.tiles[ti]
	f0 := t.fired
	if at, ok := t.runTo(deadline); ok {
		c.next[ti] = at
		if at < *min {
			*min = at
		}
	} else {
		c.next[ti] = nextNone
	}
	*fired += t.fired - f0
	// Cycles the drain scheduled into this tile are captured exactly by
	// runTo's return; re-arm the tracker so it reports only merge-phase
	// scheduling.
	t.minSched = noMinSched
}

// merge applies all staged cross-tile effects in (at, source tile, staging
// index) order. Per-tile outboxes are at-sorted by construction, so a
// K-way head scan with the tie going to the lowest tile index yields the
// canonical order. end is the next window start, published as Horizon for
// the handlers.
func (c *Cluster) merge(end Cycle) {
	c.horizon = end
	// Collect the tiles that actually staged anything; the head scan then
	// touches only live outboxes instead of all of them per pop. The list
	// stays in ascending tile order (removal shifts, never swaps), which is
	// what makes the lowest-tile tie-break fall out of a strict < scan.
	live := c.live[:0]
	for ti := range c.outbox {
		if len(c.outbox[ti]) > 0 {
			live = append(live, int32(ti))
		}
	}
	for len(live) > 0 {
		best := 0
		bestAt := c.outbox[live[0]][c.oidx[live[0]]].at
		for li := 1; li < len(live); li++ {
			if at := c.outbox[live[li]][c.oidx[live[li]]].at; at < bestAt {
				best, bestAt = li, at
			}
		}
		ti := live[best]
		s := &c.outbox[ti][c.oidx[ti]]
		c.oidx[ti]++
		if c.oidx[ti] == len(c.outbox[ti]) {
			live = append(live[:best], live[best+1:]...)
		}
		h, at, arg, aux := s.h, s.at, s.arg, s.aux
		s.h, s.arg = nil, nil // release references; the buffer is reused
		h(at, arg, aux)
	}
	c.live = live
	for ti := range c.outbox {
		if len(c.outbox[ti]) > 0 {
			c.outbox[ti] = c.outbox[ti][:0]
			c.oidx[ti] = 0
		}
	}
	c.nstaged.Store(0)
	c.horizon = 0
}

// drainShard is one worker's share of a wave: drain the home deque LIFO,
// then steal whole-tile drains FIFO from the other workers until every
// deque is observed empty. The fold order of min/fired over the tiles a
// worker happens to drain is irrelevant (min and sum commute), and which
// worker drains a tile is unobservable to the simulation, so stealing
// cannot perturb the schedule.
func (c *Cluster) drainShard(s int, deadline Cycle) {
	min := nextNone
	var fired uint64
	for {
		ti, ok := c.deq[s].pop()
		if !ok {
			break
		}
		c.drainTile(int(ti), deadline, &min, &fired)
	}
	for swept := false; !swept; {
		swept = true
		for off := 1; off < c.shards; off++ {
			v := s + off
			if v >= c.shards {
				v -= c.shards
			}
			for {
				ti, st := c.deq[v].steal()
				if st == dqStolen {
					c.steals.Add(1)
					c.drainTile(int(ti), deadline, &min, &fired)
					swept = false
					continue
				}
				if st == dqRetry {
					swept = false // lost a race for a visible item; re-sweep
				}
				break
			}
		}
	}
	c.pmin[s], c.pfired[s] = min, fired
}

// worker is one shard's drain loop. The channels and panic slot are passed
// in rather than read off the Cluster, so a worker scheduled late never
// races stopWorkers replacing the per-run fields.
func (c *Cluster) worker(s int, start <-chan Cycle, dones chan<- struct{}, panics []any) {
	for deadline := range start {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics[s] = r
				}
				dones <- struct{}{}
			}()
			c.drainShard(s, deadline)
		}()
	}
}

// startWorkers spins up the shard pool for a run. No-op when shards == 1.
func (c *Cluster) startWorkers() {
	if c.shards <= 1 || c.running {
		return
	}
	c.starts = make([]chan Cycle, c.shards)
	c.dones = make(chan struct{}, c.shards)
	c.panics = make([]any, c.shards)
	for s := 0; s < c.shards; s++ {
		c.starts[s] = make(chan Cycle)
		go c.worker(s, c.starts[s], c.dones, c.panics)
	}
	c.running = true
}

// stopWorkers shuts the shard pool down so no goroutines outlive the run.
func (c *Cluster) stopWorkers() {
	if !c.running {
		return
	}
	for s := range c.starts {
		close(c.starts[s])
	}
	c.starts = nil
	c.running = false
}

// Align advances every tile's clock to the start of the next window, so
// that work scheduled between runs (machine kickoff events, post-run
// probes) lands on the window grid. Call only when all queues are empty —
// typically right after a successful Drain.
func (c *Cluster) Align() {
	if c.fast {
		c.shared.RunTo(c.base)
		c.nextValid = false
		return
	}
	for _, t := range c.tiles {
		t.RunTo(c.base)
	}
	c.nextValid = false
}

// RunUntil advances windows until the predicate holds or every tile
// drains. The predicate is evaluated at merge barriers and on idle — the
// only points where cross-tile state changes, so the only points where its
// value can flip. Windows whose barrier merged nothing are fused straight
// into the next drain without re-evaluating it. It returns true if the
// predicate was satisfied.
func (c *Cluster) RunUntil(done func() bool) bool {
	c.nextValid = false // events may have been scheduled since the last run
	c.startWorkers()
	defer c.stopWorkers()
	for !done() {
		for {
			merged, idle := c.step()
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

// Drain runs windows until every tile's queue is empty, with a safety
// limit on the number of events fired to guard against livelock in a
// buggy model. It returns the events fired and whether it fully drained.
func (c *Cluster) Drain(limit uint64) (fired uint64, drained bool) {
	c.nextValid = false // events may have been scheduled since the last run
	c.startWorkers()
	defer c.stopWorkers()
	start := c.events
	for {
		_, idle := c.step()
		if idle {
			return c.events - start, true
		}
		if f := c.events - start; f > limit {
			return f, false
		}
	}
}
