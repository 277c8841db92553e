package main

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/trace"
)

// walkStep is one priv_walk operation: a load or a store of word Idx of
// the thread's private array.
type walkStep struct {
	Idx   uint16
	Store bool
}

// inputs is everything generated from -seed. Set-up generates it in the
// parent and writes it to a file; the child that runs a workload only ever
// sees the file.
type inputs struct {
	Seed int64
	// Walks[t] is thread t's priv_walk random walk.
	Walks [][]walkStep
	// TraceBase is the address the two seeded traces were generated at: the
	// first padded allocation of a fresh System.
	TraceBase ghostwriter.Addr
	// Sharing is the trace.Random traffic cell_sharing replays under mesi;
	// Scribble is the same generator with approximate stores (d=8) for
	// cell_scribble under ghostwriter.
	Sharing  *trace.Trace
	Scribble *trace.Trace
	// Fleet is the synthesized manifest fleet_wal submits, in submission
	// order.
	Fleet []harness.WorkItem
}

func generateInputs(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{Seed: seed}

	rng := rand.New(rand.NewSource(seed))
	in.Walks = make([][]walkStep, cellThreads)
	for t := range in.Walks {
		steps := make([]walkStep, sz.WalkSteps)
		for i := range steps {
			// One slow sweep over the whole array with a seeded jitter of
			// a block either way: mostly the same or a neighbouring cache
			// block, so the L1 serves almost all of it, and every block
			// is touched whatever the seed, so the cold misses — and with
			// them the cell's messages and mallocs — do not move with it.
			idx := (i*sz.WalkWords/sz.WalkSteps + rng.Intn(33) - 16 + sz.WalkWords) % sz.WalkWords
			steps[i] = walkStep{Idx: uint16(idx), Store: rng.Intn(4) == 0}
		}
		in.Walks[t] = steps
	}

	in.TraceBase = ghostwriter.New(ghostwriter.Config{}).AllocPadded(sz.TraceSpan)
	pc := trace.PatternConfig{Threads: cellThreads, Rounds: sz.TraceRounds, Base: in.TraceBase, DDist: -1}
	in.Sharing = trace.Random(pc, seed, sz.TraceSpan)
	pc.Scribble, pc.DDist = true, 8
	in.Scribble = trace.Random(pc, seed, sz.TraceSpan)

	base, err := harness.Manifest("all", harness.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("fleet manifest: %w", err)
	}
	// Copy k of the manifest adds k cycles to every cell's GI timeout, which
	// changes every key and nothing else (the cells are never simulated).
	seen := map[string]bool{}
	for k := 1; k <= sz.FleetCopies; k++ {
		for _, it := range base {
			it.Spec.Config.GITimeout += uint64(k)
			it.Key = it.Spec.Key()
			if seen[it.Key] {
				return nil, fmt.Errorf("fleet manifest: copy %d of %s repeats a key", k, it.Label)
			}
			seen[it.Key] = true
			in.Fleet = append(in.Fleet, it)
		}
	}
	rng.Shuffle(len(in.Fleet), func(i, j int) { in.Fleet[i], in.Fleet[j] = in.Fleet[j], in.Fleet[i] })
	return in, nil
}

func (in *inputs) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(in); err != nil {
		f.Close()
		return fmt.Errorf("encode inputs: %w", err)
	}
	return f.Close()
}

func loadInputs(path string) (*inputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := &inputs{}
	if err := gob.NewDecoder(f).Decode(in); err != nil {
		return nil, fmt.Errorf("decode inputs %s: %w", path, err)
	}
	return in, nil
}
