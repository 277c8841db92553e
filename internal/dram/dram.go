// Package dram models main memory as per-channel controllers with a fixed
// access latency plus bank-occupancy queueing, approximating the paper's
// DDR3-1600 configuration at the fidelity the evaluation needs (the paper's
// results are dominated by on-chip coherence behaviour; DRAM appears as a
// fixed-cost backstop for cold misses and L2 victims).
package dram

import (
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// Config sets the DRAM timing model.
type Config struct {
	// AccessLatency is the cycles from request to data for an idle channel
	// (row activate + CAS + transfer at a 1 GHz core clock).
	AccessLatency sim.Cycle
	// Occupancy is the cycles a channel stays busy per access (data burst).
	Occupancy sim.Cycle
}

// DefaultConfig approximates DDR3-1600 behind a 1 GHz CMP.
func DefaultConfig() Config { return Config{AccessLatency: 100, Occupancy: 16} }

// Channel is one memory channel backed by the simulated physical memory.
// Each directory home owns a channel.
type Channel struct {
	cfg   Config
	eng   *sim.Engine
	mem   *mem.Memory
	free  sim.Cycle
	meter *energy.Meter
	st    *stats.Stats
}

// NewChannel builds a channel over the shared backing memory.
func NewChannel(eng *sim.Engine, cfg Config, backing *mem.Memory, meter *energy.Meter, st *stats.Stats) *Channel {
	return &Channel{cfg: cfg, eng: eng, mem: backing, meter: meter, st: st}
}

// Reset returns an idle channel (no access in flight) to its
// just-constructed state: free at cycle 0.
func (c *Channel) Reset() { c.free = 0 }

// ReadBlock schedules a block read of size bytes at addr; done receives the
// data at the completion cycle.
func (c *Channel) ReadBlock(addr mem.Addr, size int, done func(data []byte)) {
	at := c.schedule()
	c.eng.At(at, func() {
		buf := make([]byte, size)
		c.mem.Read(addr, buf)
		done(buf)
	})
}

// WriteBlock schedules a block write (an L2 victim writeback); done, if
// non-nil, runs at completion.
func (c *Channel) WriteBlock(addr mem.Addr, data []byte, done func()) {
	buf := make([]byte, len(data))
	copy(buf, data)
	at := c.schedule()
	c.eng.At(at, func() {
		c.mem.Write(addr, buf)
		if done != nil {
			done()
		}
	})
}

// schedule accounts one access: queue behind the channel, charge energy,
// and return the completion cycle.
func (c *Channel) schedule() sim.Cycle {
	start := c.eng.Now()
	if c.free > start {
		start = c.free
	}
	c.free = start + c.cfg.Occupancy
	c.meter.DRAMAccess()
	c.st.DRAMAccesses++
	return start + c.cfg.AccessLatency
}
