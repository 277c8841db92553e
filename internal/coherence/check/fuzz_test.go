package check

import (
	"reflect"
	"slices"
	"testing"

	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// FuzzCheckerSchedules randomizes issue orders past the exhaustive sweep's
// depth: arbitrary bytes become one explicit schedule (bit 0 of the first
// byte selects sequential issue, the rest decode one step each, up to 24
// steps over 3 cores × 5 opcodes × 3 same-set addresses) and every
// registered protocol — the scribble residency readings among them — must
// run it violation-free. Any violation here is a
// real table bug or a checker false positive — both are failures. Each
// input is also replayed on a testbed that first ran a different schedule
// (the input reversed) and was rewound: Explore's rewind must hold beyond
// the depths and issue orders the exhaustive differential enumerates.
func FuzzCheckerSchedules(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41})
	f.Add([]byte{2, 44, 21, 9, 30, 14, 5, 40, 22, 13, 36, 27, 8, 44, 1, 19, 33, 6, 42, 25, 11, 38, 17, 2, 29})
	f.Add([]byte{3, 0, 15, 30, 44, 15, 0, 30, 15, 44, 0})
	addrs := []mem.Addr{0x000, 0x080, 0x100}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const cores = 3
		alphabet := cores * int(NumOpcodes) * len(addrs)
		cfg := Config{
			Cores: cores, Addrs: addrs, DDist: 8,
			Sequential: data[0]&1 == 1,
		}
		body := data[1:]
		if len(body) > 24 {
			body = body[:24]
		}
		steps := make([]Step, len(body))
		for i, b := range body {
			k := int(b) % alphabet
			steps[i] = Step{
				Core: k % cores,
				Op:   Opcode((k / cores) % int(NumOpcodes)),
				Addr: k / (cores * int(NumOpcodes)),
			}
		}
		reversed := slices.Clone(steps)
		slices.Reverse(reversed)
		for _, name := range proto.Names() {
			cfg.Protocol = proto.MustLookup(name)
			if v := RunSchedule(cfg, steps); v != nil {
				t.Errorf("protocol %s: %s", name, v)
			}
			fresh, rewound := newHarness(cfg, &Reach{}), newHarness(cfg, &Reach{})
			if v := rewound.run(reversed); v != nil {
				t.Errorf("protocol %s: %s", name, v)
				continue // a failed testbed is not rewound
			}
			rewound.reset()
			if vf, vr := fresh.run(steps), rewound.run(steps); !reflect.DeepEqual(vf, vr) {
				t.Errorf("protocol %s: new testbed: %v, rewound testbed: %v", name, vf, vr)
			} else if d := testbedDiff(fresh, rewound); vf == nil && d != "" {
				t.Errorf("protocol %s: new vs rewound testbed: %s", name, d)
			}
		}
	})
}
