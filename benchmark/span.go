package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans are kept in
// memory and written out when the benchmark ends; Parent is the index of
// the span that caused this one (-1 at the root) and Cell is the identifier
// every span of one evaluation cell shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell,omitempty"`
}

// tracer records spans for the traced pass. The zero value (and nil) is an
// off tracer: every method is a no-op, so the untraced passes the
// end-to-end metrics come from run the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// begin opens a span starting now and returns its index (-1 when off).
func (t *tracer) begin(name, cell string, parent int) int {
	if !t.enabled() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Cell: cell})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if !t.enabled() || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries the caller already timed.
func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Cell: cell, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of that interval its child spans cover (children
// that overlap each other are not subtracted twice).
func selfSeconds(spans []span) map[string]float64 {
	type iv struct{ s, e int64 }
	children := make(map[int][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	out := make(map[string]float64)
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
		var covered, hi int64
		hi = sp.Start
		for _, k := range kids {
			s, e := k.s, k.e
			if s < hi {
				s = hi
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += e - s
				hi = e
			}
		}
		out[sp.Name] += float64(sp.End-sp.Start-covered) / 1e9
	}
	return out
}
