package ghostwriter_test

import (
	"testing"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/dram"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
)

func TestDefaultsMatchTable1(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{})
	if sys.Cores() != 24 {
		t.Errorf("cores = %d, want 24", sys.Cores())
	}
	if sys.BlockSize() != 64 {
		t.Errorf("block size = %d, want 64", sys.BlockSize())
	}
	if sys.Protocol() != ghostwriter.Baseline {
		t.Error("zero config must be baseline MESI")
	}
	if ghostwriter.Baseline.String() == ghostwriter.Ghostwriter.String() {
		t.Error("protocol names must differ")
	}
	// Table 1's fixed timing is constants, not configuration.
	for _, c := range []struct {
		name      string
		got, want sim.Cycle
	}{
		{"router delay", noc.RouterDelay, 1},
		{"link delay", noc.LinkDelay, 1},
		{"flit bytes", noc.FlitBytes, 16},
		{"header bytes", noc.HeaderBytes, 8},
		{"L1 hit latency", coherence.L1HitLatency, 2},
		{"directory latency", coherence.DirLatency, 6},
		{"L2 latency", coherence.L2Latency, 10},
		{"DRAM access latency", dram.AccessLatency, 100},
		{"DRAM channel occupancy", dram.Occupancy, 16},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{Protocol: ghostwriter.Ghostwriter, Cores: 8})
	counters := sys.NewUint32Array(make([]uint32, 8), true)
	cycles := sys.Run(4, func(th *ghostwriter.Thread) {
		th.SetApproxDist(4)
		mine := counters.Addr(th.ID())
		var v uint32
		for i := 0; i < 100; i++ {
			v++
			th.Scribble32(mine, v)
		}
		th.SetApproxDist(-1)
		th.Store32(mine, v)
	})
	if cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	for i := 0; i < 4; i++ {
		if got := counters.Read(i); got != 100 {
			t.Errorf("counter %d = %d, want 100", i, got)
		}
	}
	for i := 4; i < 8; i++ {
		if got := counters.Read(i); got != 0 {
			t.Errorf("untouched counter %d = %d", i, got)
		}
	}
	if sys.Stats().Scribbles != 400 {
		t.Errorf("scribbles = %d, want 400", sys.Stats().Scribbles)
	}
	if sys.Energy().TotalPJ() <= 0 {
		t.Error("no energy accounted")
	}
	if err := sys.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestTypedArrays(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{})
	u32 := sys.NewUint32Array([]uint32{1, 2, 3}, false)
	u64 := sys.NewUint64Array([]uint64{1 << 40, 2}, true)
	f32 := sys.NewFloat32Array([]float32{1.5, -2.25}, true)
	if u32.Len() != 3 || u64.Len() != 2 || f32.Len() != 2 {
		t.Fatal("lengths wrong")
	}
	// Preloaded values are visible both to kernels and to the coherent view.
	sys.Run(1, func(th *ghostwriter.Thread) {
		if th.Load32(u32.Addr(1)) != 2 {
			t.Error("u32 preload lost")
		}
		if th.Load64(u64.Addr(0)) != 1<<40 {
			t.Error("u64 preload lost")
		}
		if th.LoadF32(f32.Addr(1)) != -2.25 {
			t.Error("f32 preload lost")
		}
		th.Store32(u32.Addr(0), 42)
	})
	if got := u32.ReadAll(); got[0] != 42 || got[2] != 3 {
		t.Errorf("ReadAll = %v", got)
	}
	if u64.Read(1) != 2 {
		t.Error("u64 read wrong")
	}
	if out := f32.ReadAllFloat64(); out[0] != 1.5 {
		t.Errorf("f32 ReadAllFloat64 = %v", out)
	}
}

func TestPaddedArraysDoNotFalselyShare(t *testing.T) {
	// A padded array of single values must put each... the padding isolates
	// the array from neighbours, not elements from each other; verify the
	// base is block-aligned and a neighbouring alloc lands in a new block.
	sys := ghostwriter.New(ghostwriter.Config{})
	a := sys.AllocPadded(10)
	b := sys.Alloc(4, 4)
	bs := ghostwriter.Addr(sys.BlockSize())
	if a%bs != 0 {
		t.Error("padded alloc not block aligned")
	}
	if b/bs == a/bs {
		t.Error("next alloc shares the padded block")
	}
}

func TestProfileSimilarity(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{ProfileSimilarity: true})
	arr := sys.NewUint32Array(make([]uint32, 4), true)
	sys.Run(1, func(th *ghostwriter.Thread) {
		th.Store32(arr.Addr(0), 1) // cold: nothing to compare against
		th.Store32(arr.Addr(0), 1) // identical: 0-distance
		th.Store32(arr.Addr(0), 3) // 1→3: 2-distance
	})
	cdf, n := sys.Stats().DistCDF()
	if n != 2 {
		t.Fatalf("profiled %d stores, want 2", n)
	}
	if cdf[0] != 0.5 || cdf[2] != 1 {
		t.Fatalf("cdf[0]=%v cdf[2]=%v", cdf[0], cdf[2])
	}
}

func TestGITimeoutConfig(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{
		Protocol:  ghostwriter.Ghostwriter,
		GITimeout: 64,
	})
	a := sys.AllocPadded(64)
	var after uint32
	sys.Run(2, func(th *ghostwriter.Thread) {
		th.SetApproxDist(4)
		switch th.ID() {
		case 0:
			th.Store32(a, 8)
			th.Barrier()
			th.Barrier()
			th.Store32(a, 9)
			th.Barrier()
		case 1:
			th.Barrier()
			th.Load32(a)
			th.Barrier()
			th.Barrier()
			th.Scribble32(a, 10) // similar to stale 9... 9→10 within 4 → GI
			th.Compute(500)      // several 64-cycle sweeps
			after = th.Load32(a)
		}
	})
	if sys.Stats().GITimeouts == 0 {
		t.Fatal("configured GI timeout never fired")
	}
	if after != 9 {
		t.Fatalf("read after timeout = %d, want coherent 9", after)
	}
}

func TestWithApproxRegionPairing(t *testing.T) {
	sys := ghostwriter.New(ghostwriter.Config{Protocol: ghostwriter.Ghostwriter})
	arr := sys.NewUint32Array(make([]uint32, 4), true)
	sys.Run(2, func(th *ghostwriter.Thread) {
		if th.ApproxDist() != -1 {
			t.Error("threads must start precise")
		}
		ghostwriter.WithApprox(th, 4, func() {
			if th.ApproxDist() != 4 {
				t.Error("region did not arm the scribe")
			}
			ghostwriter.WithApprox(th, 2, func() {
				if th.ApproxDist() != 2 {
					t.Error("nested region did not tighten d")
				}
			})
			if th.ApproxDist() != 4 {
				t.Error("nested region did not restore the outer d")
			}
			arr.Scribble(th, th.ID(), 7)
		})
		if th.ApproxDist() != -1 {
			t.Error("region did not restore precision")
		}
		arr.Store(th, th.ID(), arr.Load(th, th.ID())+1)
	})
	for i := 0; i < 2; i++ {
		if arr.Read(i) != 8 {
			t.Errorf("element %d = %d, want 8", i, arr.Read(i))
		}
	}
}
