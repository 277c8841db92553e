package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Window-boundary edge tests: events exactly at the window edge, a
// lookahead of a single cycle, zero-lookahead construction guards, and
// same-cycle cross-tile effects landing on the barrier boundary. Each
// event graph must produce identical per-tile firing logs and an
// identical merge log on Cluster and on refCluster, the naive per-tile
// model of the windowed-schedule contract of DESIGN.md §12.

// windowed is the surface the event graphs drive; Cluster and refCluster
// implement it.
type windowed interface {
	tile(i int) sched
	Stage(tile int, h StagedHandler, arg any, aux uint64)
	Horizon() Cycle
	Drain(limit uint64) (uint64, bool)
}

func (c *Cluster) tile(i int) sched { return c.Tile(i) }

// winLog records what a cluster run did: per-tile firing logs (the
// reference drains tile by tile, so only tile-private order is comparable),
// the barrier merge log, and the events Drain counted.
type winLog struct {
	tiles [][]string
	merge []string
	fired uint64
}

// runWindowGraph lets build schedule the event graph on c, drains it, and
// returns the logs.
func runWindowGraph(t *testing.T, c windowed, tiles int, build func(c windowed, l *winLog)) winLog {
	t.Helper()
	l := winLog{tiles: make([][]string, tiles)}
	build(c, &l)
	var drained bool
	if l.fired, drained = c.Drain(1_000_000); !drained {
		t.Fatal("did not drain")
	}
	return l
}

// assertWindowInvariant runs the graph on the reference and on Cluster,
// requiring identical logs.
func assertWindowInvariant(t *testing.T, tiles int, lookahead Cycle, build func(c windowed, l *winLog)) {
	t.Helper()
	want := runWindowGraph(t, newRefCluster(tiles, lookahead), tiles, build)
	got := runWindowGraph(t, NewCluster(tiles, lookahead, 0), tiles, build)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Cluster diverges from refCluster:\n got %+v\nwant %+v", got, want)
	}
}

// TestWindowEdgeEvents pins events on both sides of a window edge: the
// last cycle of a window (L-1 on the cycle-0 grid), the first cycle of
// the next (exactly L), and chains that re-schedule from one onto the
// other. Cross-tile pings staged on the last cycle of a window merge at
// the very next barrier and deliver on the boundary cycle itself.
func TestWindowEdgeEvents(t *testing.T) {
	const tiles = 4
	const L = Cycle(4)
	assertWindowInvariant(t, tiles, L, func(c windowed, l *winLog) {
		rec := func(ti int, tag string) {
			l.tiles[ti] = append(l.tiles[ti], fmt.Sprintf("%s@%d", tag, c.tile(ti).Now()))
		}
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d (h=%d)", src, dst, at, c.Horizon()))
			dst2 := dst
			c.tile(dst).At(c.Horizon(), func() { rec(dst2, "deliver") })
		}
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			// Last cycle of window 0: fire, stage a ping to the next tile,
			// and schedule locally onto the first cycle of window 1.
			c.tile(ti).At(L-1, func() {
				rec(ti, "edge-1")
				c.Stage(ti, deliver, nil, uint64(ti)<<8|uint64((ti+1)%tiles))
				c.tile(ti).At(L, func() { rec(ti, "edge") })
			})
			// An event scheduled directly on the window edge, before the run.
			c.tile(ti).At(L, func() { rec(ti, "pre-edge") })
			// And one a full window later, to cross a skip-ahead.
			c.tile(ti).At(3*L, func() { rec(ti, "far") })
		}
	})
}

// TestWindowLookaheadOne pins the degenerate grid where every cycle is its
// own window: L = 1 makes every barrier a potential merge and every event
// a boundary event.
func TestWindowLookaheadOne(t *testing.T) {
	const tiles = 4
	assertWindowInvariant(t, tiles, 1, func(c windowed, l *winLog) {
		rec := func(ti int, tag string) {
			l.tiles[ti] = append(l.tiles[ti], fmt.Sprintf("%s@%d", tag, c.tile(ti).Now()))
		}
		var hop StagedHandler
		hop = func(at Cycle, arg any, aux uint64) {
			src, dst, hops := int(aux>>16), int(aux>>8&0xff), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			dst2, hops2 := dst, hops
			c.tile(dst).At(c.Horizon(), func() {
				rec(dst2, "hop")
				if hops2 > 0 {
					c.Stage(dst2, hop, nil, uint64(dst2)<<16|uint64((dst2+1)%tiles)<<8|uint64(hops2-1))
				}
			})
		}
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			c.tile(ti).At(Cycle(ti), func() {
				rec(ti, "start")
				c.Stage(ti, hop, nil, uint64(ti)<<16|uint64((ti+1)%tiles)<<8|3)
			})
		}
	})
}

// TestWindowSameCycleCrossTileAtBarrier pins the canonical merge order
// when several tiles stage effects in the same cycle — the barrier
// boundary cycle — and every delivery lands exactly on the horizon. The
// merge log must order the ties by source tile, and deliveries to one
// destination must apply in that same order.
func TestWindowSameCycleCrossTileAtBarrier(t *testing.T) {
	const tiles = 4
	const L = Cycle(2)
	assertWindowInvariant(t, tiles, L, func(c windowed, l *winLog) {
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			src2, dst2 := src, dst
			c.tile(dst).At(c.Horizon(), func() {
				l.tiles[dst2] = append(l.tiles[dst2], fmt.Sprintf("from%d@%d", src2, c.tile(dst2).Now()))
			})
		}
		// Every tile stages two effects to tile 0 on the last cycle of
		// window 0 (cycle L-1). Canonical order is by (at, tile, staging
		// index): all of tile 0's pair, then tile 1's, and so on — and the
		// deliveries on tile 0 fire in exactly that scheduling order.
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			c.tile(ti).At(L-1, func() {
				c.Stage(ti, deliver, nil, uint64(ti)<<8|0)
				c.Stage(ti, deliver, nil, uint64(ti)<<8|0)
			})
		}
	})
}

// TestWindowZeroLookaheadPanics pins the construction guard by name: a
// windowless cluster cannot exist, and the panic says why.
func TestWindowZeroLookaheadPanics(t *testing.T) {
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "lookahead must be at least one cycle") {
			t.Errorf("panic %v, want the named lookahead guard", r)
		}
	}()
	NewCluster(4, 0, 1)
	t.Error("zero-lookahead construction did not panic")
}

// TestWindowStatsCounters pins the observability counters: one window and
// one merge per staged effect here, every event counted, and the two
// constants benchmark/ still reads.
func TestWindowStatsCounters(t *testing.T) {
	c := NewCluster(4, 2, 1)
	noop := func(Cycle, any, uint64) {}
	for i := 0; i < 4; i++ {
		i := i
		c.Tile(i).At(Cycle(2*i+1), func() { c.Stage(i, noop, nil, 0) })
	}
	c.Drain(1000)
	ws := c.WindowStats()
	if ws.Windows != 4 || ws.Merges != 4 || ws.Staged != 4 {
		t.Errorf("windows/merges/staged = %d/%d/%d, want 4/4/4", ws.Windows, ws.Merges, ws.Staged)
	}
	if ws.Events != 4 || ws.MaxWindow != 1 {
		t.Errorf("events/maxWindow = %d/%d, want 4/1", ws.Events, ws.MaxWindow)
	}
	if !ws.FastPath || ws.Steals != 0 {
		t.Errorf("FastPath/Steals = %v/%d, want the constants true/0", ws.FastPath, ws.Steals)
	}
}
