package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/trace"
	"ghostwriter/internal/wal"
)

// The probes are fixed-size microdrivers on each inner layer's public API.
// They give an isolated, cache-warm unit cost per layer operation — the
// numbers est_share multiplies the layer counts by — and a place where an
// optimisation of one layer shows before it shows end to end.

// probeSeed seeds the probes' own address and destination streams. It is a
// constant: a probe's input must not move with the workload seed.
const probeSeed = 7

// defaultWALRecordBytes is the mean journal record of a fleet_wal run on
// the reference host; the WAL probes use it when they do not run in the
// fleet_wal child (which passes the size it measured).
const defaultWALRecordBytes = 216

// unitCost is a probe's result: host nanoseconds and Go mallocs per
// operation.
type unitCost struct{ ns, allocs float64 }

// timeOps calls prepare probeReps times; each time it times the function
// prepare returns, which performs the operations and reports how many. The
// result is the median per-operation cost.
func timeOps(prepare func() (run func() int)) unitCost {
	const probeReps = 3
	var ns, allocs []float64
	for i := 0; i < probeReps; i++ {
		run := prepare()
		m0 := mallocs()
		t0 := time.Now()
		n := float64(run())
		d := time.Since(t0)
		ns = append(ns, ratio(float64(d.Nanoseconds()), n))
		allocs = append(allocs, ratio(mallocs()-m0, n))
	}
	return unitCost{ns: median(ns), allocs: median(allocs)}
}

// engineChains drives a bare sim.Engine with 24 self-rescheduling AfterArg
// chains; delay picks each chain's fixed rescheduling distance.
func engineChains(events int, delay func(chain int) sim.Cycle) unitCost {
	type chain struct {
		left  int
		delay sim.Cycle
	}
	return timeOps(func() func() int {
		eng := &sim.Engine{}
		var step func(any)
		step = func(a any) {
			c := a.(*chain)
			if c.left--; c.left > 0 {
				eng.AfterArg(c.delay, step, c)
			}
		}
		const chains = 24
		for i := 0; i < chains; i++ {
			c := &chain{left: events / chains, delay: delay(i)}
			eng.AfterArg(c.delay, step, c)
		}
		return func() int {
			fired, _ := eng.Drain(^uint64(0))
			return int(fired)
		}
	})
}

// stageEffects bounces effects between the tiles of a fast-path cluster:
// a tile event stages an effect, the barrier handler reschedules it on
// another tile.
func stageEffects(effects int) unitCost {
	type hop struct{ tile, left int }
	return timeOps(func() func() int {
		clu := sim.NewCluster(cellThreads, 2, 0)
		var fire func(any)
		var merge sim.StagedHandler
		fire = func(a any) { clu.Stage(a.(*hop).tile, merge, a, 0) }
		merge = func(_ sim.Cycle, a any, _ uint64) {
			h := a.(*hop)
			if h.left--; h.left > 0 {
				h.tile = (h.tile + 7) % cellThreads
				clu.Tile(h.tile).AtArg(clu.Horizon(), fire, h)
			}
		}
		for i := 0; i < cellThreads; i++ {
			clu.Tile(i).AtArg(1, fire, &hop{tile: i, left: effects / cellThreads})
		}
		return func() int {
			clu.Drain(^uint64(0))
			return int(clu.WindowStats().Staged)
		}
	})
}

// nocSends injects msgs messages into a noc.NewSharded network of the
// given topology from one self-rescheduling driver per node: seeded
// destinations, alternating 8 B control and 72 B data payloads, no-op
// handlers. The cost covers staging, the barrier merge, routing and link
// arbitration, and the delivery event.
func nocSends(topo string, nodes, msgs int) unitCost {
	cfg, err := noc.Geometry(topo, nodes)
	if err != nil {
		panic(err)
	}
	type driver struct {
		src  noc.NodeID
		dsts []uint16
		next int
	}
	per := msgs / nodes
	rng := rand.New(rand.NewSource(probeSeed))
	plan := make([][]uint16, nodes)
	for i := range plan {
		plan[i] = make([]uint16, per)
		for k := range plan[i] {
			plan[i][k] = uint16(rng.Intn(nodes))
		}
	}
	return timeOps(func() func() int {
		clu := sim.NewCluster(nodes, cfg.Lookahead(), 0)
		meters := make([]*energy.Meter, nodes)
		sts := make([]*stats.Stats, nodes)
		for i := range meters {
			meters[i], sts[i] = &energy.Meter{}, &stats.Stats{}
		}
		net := noc.NewSharded(clu, cfg, meters, sts, &energy.Meter{}, &stats.Stats{})
		for i := 0; i < nodes; i++ {
			net.Register(noc.NodeID(i), func(any) {})
		}
		var fire func(any)
		fire = func(a any) {
			d := a.(*driver)
			size := 8
			if d.next&1 == 1 {
				size = 72
			}
			net.Send(d.src, noc.NodeID(d.dsts[d.next]), size, nil)
			if d.next++; d.next < len(d.dsts) {
				clu.Tile(int(d.src)).AfterArg(sim.Cycle(1+d.next%3), fire, d)
			}
		}
		for i := 0; i < nodes; i++ {
			clu.Tile(i).AtArg(1, fire, &driver{src: noc.NodeID(i), dsts: plan[i]})
		}
		return func() int {
			clu.Drain(^uint64(0))
			return per * nodes
		}
	})
}

// cacheLookups probes a Table 1 L1 array: every frame filled, then seeded
// lookups of which half hit.
func cacheLookups(n int) unitCost {
	geo := machine.DefaultConfig().L1
	c := cache.New(geo)
	frames := geo.SizeBytes / geo.BlockSize
	for i := 0; i < frames; i++ {
		a := mem.Addr(i * geo.BlockSize)
		c.Install(c.VictimWay(a), a, cache.Shared, nil)
	}
	rng := rand.New(rand.NewSource(probeSeed))
	addrs := make([]mem.Addr, 4096)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Intn(2*frames)*geo.BlockSize + 4*rng.Intn(geo.BlockSize/4))
	}
	found := 0
	u := timeOps(func() func() int {
		return func() int {
			for i := 0; i < n; i++ {
				if c.Lookup(addrs[i%len(addrs)]) != nil {
					found++
				}
			}
			return n
		}
	})
	if found == 0 {
		panic("cache probe: no lookup hit")
	}
	return u
}

// hitMemops has 24 threads hammer one warm private word each: the
// kernel↔engine handoff and an L1 hit, nothing else.
func hitMemops(perThread int, store bool) unitCost {
	sys := ghostwriter.New(ghostwriter.Config{})
	const stride = 16 // words per block: one block per thread
	arr := sys.NewUint32Array(make([]uint32, stride*cellThreads), true)
	kernel := func(n int) ghostwriter.Kernel {
		return func(t *ghostwriter.Thread) {
			a := arr.Addr(stride * t.ID())
			for i := 0; i < n; i++ {
				if store {
					t.Store32(a, uint32(i))
				} else {
					t.Load32(a)
				}
			}
		}
	}
	sys.Run(cellThreads, kernel(1)) // first touch: bring the block in
	return timeOps(func() func() int {
		return func() int {
			sys.Run(cellThreads, kernel(perThread))
			return perThread * cellThreads
		}
	})
}

// pingpong replays trace.PathologicalSharing on two threads: every store
// invalidates the other cache and every load misses (mesi), or scribbles
// hide in GS/GI (ghostwriter, d=8).
func pingpong(rounds int, scribble bool) unitCost {
	cfg, d := ghostwriter.Config{}, -1
	if scribble {
		cfg.Protocol, d = ghostwriter.Ghostwriter, 8
	}
	return timeOps(func() func() int {
		sys := ghostwriter.New(cfg)
		kernel := trace.PathologicalSharing(trace.PatternConfig{
			Threads: 2, Rounds: rounds, Base: sys.AllocPadded(64), DDist: d, Scribble: scribble,
		}).Kernel()
		return func() int {
			sys.Run(2, kernel)
			st := sys.Stats()
			return int(st.Loads + st.Stores + st.Scribbles)
		}
	})
}

func specKeys(n int) unitCost {
	items, err := harness.Manifest("all", harness.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return timeOps(func() func() int {
		return func() int {
			for i := 0; i < n; i++ {
				if items[i%len(items)].Spec.Key() == "" {
					panic("empty key")
				}
			}
			return n
		}
	})
}

func testbeds(n int) unitCost {
	cfg := mutate.Grid(proto.MustLookup("mesi"))[0].Cfg
	steps := []check.Step{{Core: 0, Op: check.Load, Addr: 0}}
	return timeOps(func() func() int {
		return func() int {
			for i := 0; i < n; i++ {
				if v := check.RunSchedule(cfg, steps); v != nil {
					panic(fmt.Sprintf("check probe: %v", v))
				}
			}
			return n
		}
	})
}

// walAppends times wal.Store.Append with and without fsync, per record, in
// microseconds. The synced loop stops after maxSync so that a slow disk
// cannot hold the run up; fsync latency describes this host's disk only.
func walAppends(dir string, recordBytes, n int, maxSync time.Duration) (appendUS, syncUS []float64, err error) {
	store, _, err := wal.Open(dir, nil)
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	payload := make([]byte, recordBytes)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	one := func(sync bool) (float64, error) {
		t0 := time.Now()
		err := store.Append(payload, sync)
		return float64(time.Since(t0).Nanoseconds()) / 1000, err
	}
	for i := 0; i < n; i++ {
		us, err := one(false)
		if err != nil {
			return nil, nil, err
		}
		appendUS = append(appendUS, us)
	}
	deadline := time.Now().Add(maxSync)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		us, err := one(true)
		if err != nil {
			return nil, nil, err
		}
		syncUS = append(syncUS, us)
	}
	return appendUS, syncUS, nil
}

// runProbes runs every probe and returns the per-layer metrics they feed.
// walRecordBytes is the fleet run's mean record size (0 = the default).
func runProbes(e *env, walRecordBytes int) map[string]float64 {
	k := e.sz.ProbeScale
	out := map[string]float64{}
	set := func(name string, u unitCost) { out[name] = u.ns }

	set("sim.wheel_ns_per_event", engineChains(100_000*k, func(i int) sim.Cycle { return sim.Cycle(1 + i%3) }))
	set("sim.far_ns_per_event", engineChains(50_000*k, func(int) sim.Cycle { return 1024 }))
	set("sim.stage_ns_per_effect", stageEffects(50_000*k))
	mesh := nocSends("mesh", 24, 25_000*k)
	set("noc.send_ns_per_msg.mesh24", mesh)
	out["noc.allocs_per_send"] = mesh.allocs
	set("noc.send_ns_per_msg.ring24", nocSends("ring", 24, 25_000*k))
	set("noc.send_ns_per_msg.xbar24", nocSends("xbar", 24, 25_000*k))
	set("noc.send_ns_per_msg.torus256", nocSends("torus", torusNodes, 25_600*k))
	set("cache.lookup_ns", cacheLookups(500_000*k))
	set("machine.load_hit_ns_per_memop", hitMemops(500*k, false))
	set("machine.store_hit_ns_per_memop", hitMemops(500*k, true))
	set("coherence.pingpong_ns_per_memop", pingpong(1000*k, false))
	set("coherence.scribble_ns_per_memop", pingpong(1000*k, true))
	out["harness.key_us"] = specKeys(250*k).ns / 1000
	set("check.testbed_ns", testbeds(250*k))

	if walRecordBytes <= 0 {
		walRecordBytes = defaultWALRecordBytes
	}
	e.seq++
	dir := filepath.Join(e.dir, fmt.Sprintf("wal-probe-%d", e.seq))
	defer os.RemoveAll(dir)
	appendUS, syncUS, err := walAppends(dir, walRecordBytes, 125*k, time.Second)
	if err != nil {
		panic(fmt.Sprintf("wal probe: %v", err))
	}
	out["wal.append_us_p50"] = percentile(appendUS, 50)
	out["wal.sync_us_p50"] = percentile(syncUS, 50)
	out["wal.sync_us_p99"] = percentile(syncUS, 99)
	return out
}

// attribute estimates, from outside, what share of machine.run_s each
// layer accounts for: the layer's probe unit cost times the layer's count
// in the traced pass, over the run time. The unit costs are isolated and
// cache-warm and the layers nest (a miss's cost includes its messages and
// events), so the shares are an estimate and need not sum to one.
func attribute(layer map[string]float64, nocProbe string) {
	runNS := layer["machine.run_s"] * 1e9
	if runNS == 0 {
		return
	}
	misses := layer["coherence.l1_misses"]
	hits := layer["machine.memops"] - misses
	hitNS := (layer["machine.load_hit_ns_per_memop"] + layer["machine.store_hit_ns_per_memop"]) / 2
	layer["machine.est_share"] = hitNS * hits / runNS
	layer["coherence.est_share"] = layer["coherence.pingpong_ns_per_memop"] * misses / runNS
	layer["sim.est_share"] = layer["sim.wheel_ns_per_event"] * layer["sim.events"] / runNS
	layer["noc.est_share"] = layer[nocProbe] * layer["noc.msgs"] / runNS
	layer["machine.unattributed_share"] = 1 - layer["machine.est_share"] - layer["coherence.est_share"]
}
