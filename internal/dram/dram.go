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

// The DRAM timing, approximating DDR3-1600 behind a 1 GHz CMP.
const (
	// AccessLatency is the cycles from request to data for an idle channel
	// (row activate + CAS + transfer at a 1 GHz core clock).
	AccessLatency sim.Cycle = 100
	// Occupancy is the cycles a channel stays busy per access (data burst).
	Occupancy sim.Cycle = 16
)

// Channel is one memory channel backed by the simulated physical memory.
// Each directory home owns a channel.
type Channel struct {
	eng   *sim.Engine
	mem   *mem.Memory
	free  sim.Cycle
	meter *energy.Meter
	st    *stats.Stats
	// readFn is bound once; the scheduled argument is the read completing.
	// idle chains the records of completed reads for the next ones to use,
	// growing a chunk at a time when every record is in flight.
	readFn func(any)
	idle   *read
}

// readChunk is the number of records a channel adds to an empty idle list.
const readChunk = 16

// read is one block read in flight.
type read struct {
	addr mem.Addr
	buf  []byte
	done func(any)
	arg  any
	next *read
}

// NewChannel builds a channel over the shared backing memory.
func NewChannel(eng *sim.Engine, backing *mem.Memory, meter *energy.Meter, st *stats.Stats) *Channel {
	c := &Channel{eng: eng, mem: backing, meter: meter, st: st}
	c.readFn = c.finishRead
	return c
}

// Reset returns an idle channel (no access in flight) to its
// just-constructed state: free at cycle 0.
func (c *Channel) Reset() { c.free = 0 }

// ReadBlock schedules a block read of len(buf) bytes at addr into buf, which
// the caller must leave alone until then; at the completion cycle buf holds
// the data and done(arg) runs. A caller that binds done once and passes its
// context as arg pays no allocation per read.
func (c *Channel) ReadBlock(addr mem.Addr, buf []byte, done func(any), arg any) {
	if c.idle == nil {
		chunk := make([]read, readChunk)
		for i := range chunk[:readChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		c.idle = &chunk[0]
	}
	r := c.idle
	c.idle = r.next
	*r = read{addr: addr, buf: buf, done: done, arg: arg}
	c.eng.AtArg(c.schedule(), c.readFn, r)
}

// finishRead completes a read: it fetches the data, retires the record and
// hands over to the caller.
func (c *Channel) finishRead(arg any) {
	r := arg.(*read)
	c.mem.Read(r.addr, r.buf)
	done, doneArg := r.done, r.arg
	*r = read{next: c.idle}
	c.idle = r
	done(doneArg)
}

// WriteBlock schedules a block write (an L2 victim writeback) of a copy of
// data, which lands in memory at the completion cycle.
func (c *Channel) WriteBlock(addr mem.Addr, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	c.eng.At(c.schedule(), func() { c.mem.Write(addr, buf) })
}

// schedule accounts one access: queue behind the channel, charge energy,
// and return the completion cycle.
func (c *Channel) schedule() sim.Cycle {
	start := c.eng.Now()
	if c.free > start {
		start = c.free
	}
	c.free = start + Occupancy
	c.meter.DRAMAccess()
	c.st.DRAMAccesses++
	return start + AccessLatency
}
