package mutate

import (
	"testing"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// FuzzMutateTables interprets arbitrary bytes as a mutation program
// (protocol selector + a sequence of Decode chunks), applies the valid
// mutations cumulatively, and pushes the resulting table stack through a
// small checker sweep. The properties under test: the factory never emits
// a structurally invalid table (Validate), and no mutant — however
// scrambled — can crash the checker process (panics must surface as
// violations). Violations themselves are expected: most mutants are
// unsound, and that is the point.
func FuzzMutateTables(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{2, 1, 0, 5, 1, 0, 0, 2, 6, 1, 2, 3, 0, 0, 3})
	f.Add([]byte{0, 7, 1, 1, 1, 1, 0, 5, 0, 5, 1, 0, 0, 0, 0, 4, 0, 6, 2, 0, 1, 0})
	names := proto.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := proto.MustLookup(names[int(data[0])%len(names)])
		cur := p
		applied := 0
		for _, m := range Decode(data[1:]) {
			if applied >= 4 {
				break
			}
			mut, ok := m.Apply(cur)
			if !ok {
				continue
			}
			cur = mut
			applied++
			if err := Validate(cur); err != nil {
				t.Fatalf("mutation %s produced an invalid table: %v", m.Describe(p), err)
			}
		}
		if applied == 0 {
			return
		}
		res := check.Explore(check.Config{
			Protocol: cur, Cores: 2, Addrs: []mem.Addr{0x000}, Depth: 2,
			DDist: 8, MaxViolations: 1,
		})
		_ = res // violations are expected; surviving the sweep is the property
	})
}
