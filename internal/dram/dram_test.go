package dram

import (
	"bytes"
	"testing"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

func newChannel() (*sim.Engine, *Channel, *mem.Memory, *stats.Stats, *energy.Meter) {
	eng := &sim.Engine{}
	backing := mem.New()
	st := &stats.Stats{}
	m := &energy.Meter{}
	return eng, NewChannel(eng, backing, m, st), backing, st, m
}

func TestReadLatency(t *testing.T) {
	eng, ch, backing, _, _ := newChannel()
	backing.Write(0x100, []byte{1, 2, 3, 4})
	got := make([]byte, 4)
	var at sim.Cycle
	ch.ReadBlock(0x100, got, func(any) { at = eng.Now() }, nil)
	eng.Drain(10)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("read %v", got)
	}
	if at != AccessLatency {
		t.Fatalf("completion at %d, want %d", at, AccessLatency)
	}
}

func TestChannelOccupancySerializes(t *testing.T) {
	eng, ch, _, _, _ := newChannel()
	var times []sim.Cycle
	for i := 0; i < 3; i++ {
		ch.ReadBlock(mem.Addr(i*64), make([]byte, 64), func(any) { times = append(times, eng.Now()) }, nil)
	}
	eng.Drain(10)
	for i, at := range times {
		want := AccessLatency + sim.Cycle(i)*Occupancy
		if at != want {
			t.Errorf("access %d completed at %d, want %d", i, at, want)
		}
	}
}

func TestWriteBlock(t *testing.T) {
	eng, ch, backing, _, _ := newChannel()
	src := []byte{9, 8, 7}
	ch.WriteBlock(0x40, src)
	src[0] = 0 // the channel must have captured a copy
	buf := make([]byte, 3)
	backing.Read(0x40, buf)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("backing holds %v before the write completes, want zeros", buf)
	}
	eng.Drain(10)
	if eng.Now() != AccessLatency {
		t.Errorf("write completed at %d, want %d", eng.Now(), AccessLatency)
	}
	backing.Read(0x40, buf)
	if !bytes.Equal(buf, []byte{9, 8, 7}) {
		t.Fatalf("backing holds %v, want snapshot at call time", buf)
	}
}

func TestAccounting(t *testing.T) {
	eng, ch, _, st, m := newChannel()
	ch.ReadBlock(0, make([]byte, 64), func(any) {}, nil)
	ch.WriteBlock(64, make([]byte, 64))
	eng.Drain(10)
	if st.DRAMAccesses != 2 {
		t.Errorf("DRAMAccesses = %d, want 2", st.DRAMAccesses)
	}
	if m.MemoryPJ != 2*energy.DRAMAccessPJ {
		t.Errorf("energy = %v, want %v", m.MemoryPJ, 2*energy.DRAMAccessPJ)
	}
}
