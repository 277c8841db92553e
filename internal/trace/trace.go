// Package trace provides a trace-driven frontend to the simulator: memory
// operation traces can be constructed programmatically (including
// generators for the classic sharing patterns the coherence literature —
// and §3.3 of the paper — discusses), serialized, and replayed as kernels
// on the simulated machine. Traces make protocol experiments reproducible
// without carrying the generating program around.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"ghostwriter/internal/coherence"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/mem"
)

// Op is one traced thread operation.
type Op struct {
	// Kind is the memory operation flavour; Compute-only gaps have
	// Width == 0.
	Kind  coherence.OpKind
	Addr  mem.Addr
	Width uint8  // 0 marks a pure compute gap
	Value uint64 // store/scribble value
	// Gap is the Compute cycles charged before the operation issues.
	Gap uint32
	// DDist reprograms the scribe comparator before the op when >= -1
	// (use NoDistChange to leave it untouched).
	DDist int8
}

// NoDistChange leaves the thread's d-distance register untouched.
const NoDistChange = int8(-128)

// Trace is a per-thread operation stream.
type Trace struct {
	Threads [][]Op
}

// NumThreads returns the thread count.
func (t *Trace) NumThreads() int { return len(t.Threads) }

// Ops returns the total operation count.
func (t *Trace) Ops() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// Kernel returns a machine kernel that replays the trace: thread i executes
// its stream in order, with a barrier between none of the ops (traces are
// free-running; synchronized traces encode waits as Gap cycles).
func (t *Trace) Kernel() machine.Kernel {
	return func(th *machine.Thread) {
		if th.ID() >= len(t.Threads) {
			return
		}
		for _, op := range t.Threads[th.ID()] {
			if op.DDist != NoDistChange {
				th.SetApproxDist(int(op.DDist))
			}
			if op.Gap > 0 {
				th.Compute(uint64(op.Gap))
			}
			if op.Width == 0 {
				continue
			}
			switch op.Kind {
			case coherence.OpLoad:
				switch op.Width {
				case 1:
					th.Load8(op.Addr)
				case 2:
					th.Load16(op.Addr)
				case 4:
					th.Load32(op.Addr)
				default:
					th.Load64(op.Addr)
				}
			case coherence.OpStore:
				switch op.Width {
				case 1:
					th.Store8(op.Addr, uint8(op.Value))
				case 2:
					th.Store16(op.Addr, uint16(op.Value))
				case 4:
					th.Store32(op.Addr, uint32(op.Value))
				default:
					th.Store64(op.Addr, op.Value)
				}
			case coherence.OpScribble:
				switch op.Width {
				case 1:
					th.Scribble8(op.Addr, uint8(op.Value))
				case 2:
					th.Scribble16(op.Addr, uint16(op.Value))
				case 4:
					th.Scribble32(op.Addr, uint32(op.Value))
				default:
					th.Scribble64(op.Addr, op.Value)
				}
			}
		}
	}
}

// traceMagic identifies the serialized format.
const traceMagic = uint32(0x47575452) // "GWTR"

// A trace file is a header, then per thread an op count (uint64) and that
// many records. encoding/binary packs struct fields with no padding.
type header struct{ Magic, Threads uint32 }

// record is one Op as serialized, 23 bytes.
type record struct {
	Kind  uint8
	Addr  uint64
	Width uint8
	Value uint64
	Gap   uint32
	DDist int8
}

// Save writes the trace in a compact little-endian binary format.
func (t *Trace) Save(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, header{traceMagic, uint32(len(t.Threads))}); err != nil {
		return err
	}
	for _, ops := range t.Threads {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(ops))); err != nil {
			return err
		}
		for _, op := range ops {
			rec := record{uint8(op.Kind), uint64(op.Addr), op.Width, op.Value, op.Gap, op.DDist}
			if err := binary.Write(w, binary.LittleEndian, &rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	var h header
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	if h.Magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", h.Magic)
	}
	if h.Threads > 1024 {
		return nil, fmt.Errorf("trace: implausible thread count %d", h.Threads)
	}
	t := &Trace{Threads: make([][]Op, h.Threads)}
	for i := range t.Threads {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		// n comes from the input: the slice grows as records decode, so a
		// corrupt count fails at the end of the data, not in make.
		ops := make([]Op, 0, min(n, 1024))
		for ; n > 0; n-- {
			var rec record
			if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
				return nil, err
			}
			ops = append(ops, Op{coherence.OpKind(rec.Kind), mem.Addr(rec.Addr), rec.Width, rec.Value, rec.Gap, rec.DDist})
		}
		t.Threads[i] = ops
	}
	return t, nil
}
