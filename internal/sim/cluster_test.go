package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestClusterConstruction pins the constructor contracts: the accessors
// and the tile/lookahead validation panics.
func TestClusterConstruction(t *testing.T) {
	c := NewCluster(6, 3, 2)
	if c.Tiles() != 6 || c.Lookahead() != 3 {
		t.Errorf("Tiles/Lookahead = %d/%d, want 6/3", c.Tiles(), c.Lookahead())
	}
	for _, build := range []func(){
		func() { NewCluster(0, 2, 1) },
		func() { NewCluster(4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid cluster construction did not panic")
				}
			}()
			build()
		}()
	}
}

// TestClusterMergeOrder pins the canonical merge order: staged effects are
// applied sorted by (at, source tile, staging index), regardless of the
// order the tiles staged them in.
func TestClusterMergeOrder(t *testing.T) {
	c := NewCluster(3, 4, 1)
	var got []string
	rec := func(tag string) StagedHandler {
		return func(at Cycle, arg any, aux uint64) {
			got = append(got, fmt.Sprintf("%s@%d", tag, at))
		}
	}
	// Tile 2 stages first in real time, at cycle 1; tiles 0 and 1 stage at
	// cycle 2; tile 0 stages twice in the same cycle. Canonical order:
	// t2@1, then cycle-2 ties broken by tile index (t0 before t1), then
	// t0's second staging after its first.
	c.Tile(2).At(1, func() { c.Stage(2, rec("t2"), nil, 0) })
	c.Tile(1).At(2, func() { c.Stage(1, rec("t1"), nil, 0) })
	c.Tile(0).At(2, func() {
		c.Stage(0, rec("t0a"), nil, 0)
		c.Stage(0, rec("t0b"), nil, 0)
	})
	if _, drained := c.Drain(100); !drained {
		t.Fatal("did not drain")
	}
	want := []string{"t2@1", "t0a@2", "t0b@2", "t1@2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestClusterSkipAhead pins the empty-window skip: a lone event far in the
// future is reached in one window, and the window grid stays anchored at
// cycle 0 in lookahead multiples (base is at/L*L, independent of history).
func TestClusterSkipAhead(t *testing.T) {
	c := NewCluster(2, 4, 1)
	firedAt := Cycle(0)
	c.Tile(1).At(1001, func() { firedAt = c.Tile(1).Now() })
	fired, drained := c.Drain(10)
	if !drained || fired != 1 {
		t.Fatalf("Drain = %d/%v, want 1/true", fired, drained)
	}
	if firedAt != 1001 {
		t.Fatalf("event fired at %d, want 1001", firedAt)
	}
	// 1001 lies in grid window [1000, 1004); after the drain the cluster
	// clock sits at the window end.
	if c.Now() != 1004 {
		t.Fatalf("Now = %d, want 1004 (window end)", c.Now())
	}
}

// TestClusterStagedHorizonScheduling pins the staged-handler contract:
// during the merge, Horizon names the next window start and handlers may
// schedule there on any tile; the scheduled work fires in a later window.
func TestClusterStagedHorizonScheduling(t *testing.T) {
	c := NewCluster(2, 2, 1)
	var deliveredAt Cycle
	c.Tile(0).At(3, func() {
		c.Stage(0, func(at Cycle, arg any, aux uint64) {
			if c.Horizon() != 4 {
				t.Errorf("Horizon = %d during merge, want 4", c.Horizon())
			}
			c.Tile(1).At(c.Horizon(), func() { deliveredAt = c.Tile(1).Now() })
		}, nil, 0)
	})
	if _, drained := c.Drain(100); !drained {
		t.Fatal("did not drain")
	}
	if deliveredAt != 4 {
		t.Fatalf("cross-tile delivery at %d, want 4", deliveredAt)
	}
	if c.Horizon() != 0 {
		t.Fatalf("Horizon = %d outside merge, want 0", c.Horizon())
	}
}

// TestClusterStageDuringMergePanics pins the protocol violation: staging
// from a merge handler must panic (its window has already been merged).
func TestClusterStageDuringMergePanics(t *testing.T) {
	c := NewCluster(2, 2, 1)
	c.Tile(0).At(1, func() {
		c.Stage(0, func(at Cycle, arg any, aux uint64) {
			c.Stage(1, func(Cycle, any, uint64) {}, nil, 0)
		}, nil, 0)
	})
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "merge") {
			t.Fatalf("panic %v, want the Stage-during-merge violation", r)
		}
	}()
	c.Drain(100)
}

// TestClusterAlign pins the between-runs contract: after Drain + Align
// every tile's clock sits on the window grid, so At(Now()+k) scheduling
// between runs lands identically on all tiles and a second Drain works.
func TestClusterAlign(t *testing.T) {
	c := NewCluster(3, 4, 1)
	c.Tile(2).At(6, func() {}) // leaves tile 2 at cycle 6, others behind
	if _, drained := c.Drain(10); !drained {
		t.Fatal("did not drain")
	}
	c.Align()
	for i := 0; i < c.Tiles(); i++ {
		if now := c.Tile(i).Now(); now != 8 {
			t.Fatalf("tile %d at cycle %d after Align, want 8 (grid)", i, now)
		}
	}
	// A second run scheduled from the aligned clocks drains normally.
	fired := false
	c.Tile(0).After(1, func() { fired = true })
	if _, drained := c.Drain(10); !drained || !fired {
		t.Fatal("second run after Align did not drain")
	}
}

// TestClusterRunUntil pins predicate evaluation at merge barriers and on
// idle — the only points where cross-tile state can change, so the only
// points where the predicate's value can flip. Windows whose barrier
// merged nothing are fused past without re-evaluating it.
func TestClusterRunUntil(t *testing.T) {
	// Local-only work never merges, so the run fuses straight to idle even
	// though the predicate flips partway through: the flip is observed only
	// at the idle check.
	c := NewCluster(2, 2, 1)
	count := 0
	for i := Cycle(1); i <= 10; i++ {
		c.Tile(int(i)%2).At(i, func() { count++ })
	}
	if !c.RunUntil(func() bool { return count >= 5 }) {
		t.Fatal("RunUntil did not satisfy the predicate")
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10 (merge-free windows fuse to idle)", count)
	}
	if c.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil reported success after draining idle")
	}

	// Cross-tile staging forces a merge at every window barrier; the
	// predicate is evaluated at each one, so the run stops at the first
	// barrier where it holds — after exactly 3 of the 5 staged windows.
	c = NewCluster(2, 2, 1)
	count = 0
	noop := func(Cycle, any, uint64) {}
	for i := 0; i < 5; i++ {
		c.Tile(0).At(Cycle(2*i+1), func() {
			count++
			c.Stage(0, noop, nil, 0)
		})
	}
	if !c.RunUntil(func() bool { return count >= 3 }) {
		t.Fatal("RunUntil did not satisfy the predicate")
	}
	if count != 3 {
		t.Fatalf("count = %d at merge barrier, want exactly 3", count)
	}
}

// TestClusterShardInvariantFiringLog is the unit-level differential: a
// fixed cross-tile event graph produces identical per-tile firing logs and
// an identical merge log on Cluster and on the naive refCluster.
func TestClusterShardInvariantFiringLog(t *testing.T) {
	const tiles = 8
	assertWindowInvariant(t, tiles, 2, func(c windowed, l *winLog) {
		// Each tile runs a self-rescheduling pump that periodically stages a
		// cross-tile ping; the merge handler schedules the delivery on the
		// destination tile at the horizon. Everything is a pure function of
		// the initial schedule.
		var pump func(ti int, hops int) func()
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8&0xff), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			c.tile(dst).At(c.Horizon(), pump(dst, int(aux>>16)))
		}
		pump = func(ti, hops int) func() {
			return func() {
				l.tiles[ti] = append(l.tiles[ti], fmt.Sprint(c.tile(ti).Now()))
				if hops == 0 {
					return
				}
				dst := (ti*5 + hops) % tiles
				if dst == ti {
					c.tile(ti).After(3, pump(ti, hops-1))
					return
				}
				c.Stage(ti, deliver, nil, uint64(hops-1)<<16|uint64(ti)<<8|uint64(dst))
			}
		}
		for ti := 0; ti < tiles; ti++ {
			c.tile(ti).At(Cycle(ti%3), pump(ti, 6))
		}
	})
}
