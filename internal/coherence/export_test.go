package coherence

import (
	"ghostwriter/internal/cache"
	"ghostwriter/internal/mem"
)

// SweepGI runs one visit of the GI sweep now, as its Sweeper would.
func (l *L1) SweepGI() { l.sweep() }

// GIBlocks is the controller's GI census.
func (l *L1) GIBlocks() int { return l.giBlocks }

// PutGI installs n distinct blocks, at 0x1000 and the n-1 blocks after it,
// in state GI behind the controller's back, keeping the GI census (its
// Sweeper's too) in step as setState would.
func (l *L1) PutGI(n int) {
	for i := 0; i < n; i++ {
		a := mem.Addr(0x1000 + i*64)
		v := l.arr.VictimWay(a)
		if v.Valid && v.State == cache.GI {
			l.countGI(-1)
		}
		l.arr.Install(v, a, cache.GI, nil)
		l.countGI(1)
	}
}
