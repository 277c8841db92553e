package coherence

import (
	"ghostwriter/internal/cache"
	"ghostwriter/internal/mem"
)

// SweepGI runs one period of the GI sweep now, as its armed timer would.
func (l *L1) SweepGI() { l.giSweep() }

// GIBlocks is the controller's GI census.
func (l *L1) GIBlocks() int { return l.giBlocks }

// PutGI installs n distinct blocks, at 0x1000 and the n-1 blocks after it,
// in state GI behind the controller's back, keeping the GI census in step
// as setState would.
func (l *L1) PutGI(n int) {
	for i := 0; i < n; i++ {
		a := mem.Addr(0x1000 + i*64)
		v := l.arr.VictimWay(a)
		if v.Valid && v.State == cache.GI {
			l.giBlocks--
		}
		l.arr.Install(v, a, cache.GI, nil)
		l.giBlocks++
	}
}
