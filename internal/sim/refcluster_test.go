package sim

// refCluster is the reference model of Cluster — DESIGN.md §12 written
// down with no data structure to get wrong: one naive refEngine per tile,
// every tile drained to the last cycle of the window, then a K-way merge
// of the per-tile outboxes, earliest head first and ties to the lowest
// tile. It shares no code with stepFast or mergeFast.
type refCluster struct {
	tiles     []*refEngine
	out       [][]refStaged // per source tile, in staging order
	lookahead Cycle
	base      Cycle
	horizon   Cycle
}

type refStaged struct {
	at  Cycle
	h   StagedHandler
	arg any
	aux uint64
}

func newRefCluster(tiles int, lookahead Cycle) *refCluster {
	r := &refCluster{out: make([][]refStaged, tiles), lookahead: lookahead}
	for i := 0; i < tiles; i++ {
		r.tiles = append(r.tiles, &refEngine{})
	}
	return r
}

func (r *refCluster) tile(i int) sched { return r.tiles[i] }
func (r *refCluster) Horizon() Cycle   { return r.horizon }

func (r *refCluster) Stage(tile int, h StagedHandler, arg any, aux uint64) {
	if r.horizon != 0 {
		panic("refCluster: Stage called during a window merge")
	}
	r.out[tile] = append(r.out[tile], refStaged{at: r.tiles[tile].now, h: h, arg: arg, aux: aux})
}

// step runs one window: skip to the grid window of the earliest pending
// event, drain every tile through its last cycle, merge. It reports false
// when nothing is pending anywhere.
func (r *refCluster) step() bool {
	min, pending := Cycle(0), false
	for _, t := range r.tiles {
		if at, ok := t.NextAt(); ok && (!pending || at < min) {
			min, pending = at, true
		}
	}
	if !pending {
		return false
	}
	if min >= r.base+r.lookahead {
		r.base = min / r.lookahead * r.lookahead
	}
	end := r.base + r.lookahead
	for _, t := range r.tiles {
		t.RunTo(end - 1)
	}
	r.horizon = end
	for {
		best := -1
		for ti, q := range r.out {
			if len(q) > 0 && (best < 0 || q[0].at < r.out[best][0].at) {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		s := r.out[best][0]
		r.out[best] = r.out[best][1:]
		s.h(s.at, s.arg, s.aux)
	}
	r.horizon = 0
	r.base = end
	return true
}

func (r *refCluster) Drain(limit uint64) (uint64, bool) {
	fired := func() (n uint64) {
		for _, t := range r.tiles {
			n += t.fired
		}
		return n
	}
	start := fired()
	for r.step() {
		if f := fired() - start; f > limit {
			return f, false
		}
	}
	return fired() - start, true
}
