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
	return eng, NewChannel(eng, DefaultConfig(), backing, m, st), backing, st, m
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
	if at != DefaultConfig().AccessLatency {
		t.Fatalf("completion at %d, want %d", at, DefaultConfig().AccessLatency)
	}
}

func TestChannelOccupancySerializes(t *testing.T) {
	eng, ch, _, _, _ := newChannel()
	var times []sim.Cycle
	for i := 0; i < 3; i++ {
		ch.ReadBlock(mem.Addr(i*64), make([]byte, 64), func(any) { times = append(times, eng.Now()) }, nil)
	}
	eng.Drain(10)
	cfg := DefaultConfig()
	for i, at := range times {
		want := cfg.AccessLatency + sim.Cycle(i)*cfg.Occupancy
		if at != want {
			t.Errorf("access %d completed at %d, want %d", i, at, want)
		}
	}
}

func TestWriteBlock(t *testing.T) {
	eng, ch, backing, _, _ := newChannel()
	src := []byte{9, 8, 7}
	done := false
	ch.WriteBlock(0x40, src, func() { done = true })
	src[0] = 0 // the channel must have captured a copy
	eng.Drain(10)
	if !done {
		t.Fatal("write completion not signalled")
	}
	buf := make([]byte, 3)
	backing.Read(0x40, buf)
	if !bytes.Equal(buf, []byte{9, 8, 7}) {
		t.Fatalf("backing holds %v, want snapshot at call time", buf)
	}
}

func TestWriteNilDone(t *testing.T) {
	eng, ch, backing, _, _ := newChannel()
	ch.WriteBlock(0, []byte{5}, nil)
	eng.Drain(10)
	buf := make([]byte, 1)
	backing.Read(0, buf)
	if buf[0] != 5 {
		t.Fatal("write with nil done lost")
	}
}

func TestAccounting(t *testing.T) {
	eng, ch, _, st, m := newChannel()
	ch.ReadBlock(0, make([]byte, 64), func(any) {}, nil)
	ch.WriteBlock(64, make([]byte, 64), nil)
	eng.Drain(10)
	if st.DRAMAccesses != 2 {
		t.Errorf("DRAMAccesses = %d, want 2", st.DRAMAccesses)
	}
	if m.MemoryPJ != 2*energy.DRAMAccessPJ {
		t.Errorf("energy = %v, want %v", m.MemoryPJ, 2*energy.DRAMAccessPJ)
	}
}
