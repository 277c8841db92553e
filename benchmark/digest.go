package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/stats"
)

// digest is the architectural outcome of one simulated cell: the simulated
// statistics a change meant only to speed the simulator up must leave
// identical. It is a named field list on purpose — a field added to
// ghostwriter.Stats later, and the host-side Events count, do not disturb
// it — and it is compared exactly, floats included.
type digest struct {
	Cycles            uint64    `json:"cycles"`
	Loads             uint64    `json:"loads"`
	Stores            uint64    `json:"stores"`
	Scribbles         uint64    `json:"scribbles"`
	L1LoadHits        uint64    `json:"l1LoadHits"`
	L1LoadMisses      uint64    `json:"l1LoadMisses"`
	L1StoreHits       uint64    `json:"l1StoreHits"`
	L1StoreMisses     uint64    `json:"l1StoreMisses"`
	Msgs              [5]uint64 `json:"msgs"`
	FlitHops          uint64    `json:"flitHops"`
	GSEntries         uint64    `json:"gsEntries"`
	GIEntries         uint64    `json:"giEntries"`
	GITimeouts        uint64    `json:"giTimeouts"`
	GSInvalidations   uint64    `json:"gsInvalidations"`
	ScribbleFallbacks uint64    `json:"scribbleFallbacks"`
	L2Accesses        uint64    `json:"l2Accesses"`
	DirAccesses       uint64    `json:"dirAccesses"`
	DRAMAccesses      uint64    `json:"dramAccesses"`
	ErrorPct          float64   `json:"errorPct"`
	EnergyPJ          float64   `json:"energyPJ"`
}

func digestOf(cycles uint64, st *ghostwriter.Stats, en *ghostwriter.EnergyMeter, errorPct float64) digest {
	d := digest{
		Cycles: cycles,
		Loads:  st.Loads, Stores: st.Stores, Scribbles: st.Scribbles,
		L1LoadHits: st.L1LoadHits, L1LoadMisses: st.L1LoadMisses,
		L1StoreHits: st.L1StoreHits, L1StoreMisses: st.L1StoreMisses,
		FlitHops:  st.FlitHops,
		GSEntries: st.GSEntries, GIEntries: st.GIEntries,
		GITimeouts: st.GITimeouts, GSInvalidations: st.GSInvalidations,
		ScribbleFallbacks: st.ScribbleFallbacks,
		L2Accesses:        st.L2Accesses, DirAccesses: st.DirAccesses, DRAMAccesses: st.DRAMAccesses,
		ErrorPct: errorPct,
		EnergyPJ: en.TotalPJ(),
	}
	for i, c := range stats.MsgClasses() {
		if i < len(d.Msgs) {
			d.Msgs[i] = st.Msgs[c]
		}
	}
	return d
}

func (d digest) memops() uint64 { return d.Loads + d.Stores + d.Scribbles }

// diff lists the fields in which d differs from want, one "field: got X,
// want Y" entry each, in declaration order.
func (d digest) diff(want digest) []string {
	var out []string
	gv, wv := reflect.ValueOf(d), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", gv.Type().Field(i).Name, g, w))
		}
	}
	return out
}

// checkerGolden pins one model-checker exploration: the schedule count and
// the architectural fingerprint check.Explore folds over them.
type checkerGolden struct {
	Schedules   int    `json:"schedules"`
	GSEntries   uint64 `json:"gsEntries"`
	GIEntries   uint64 `json:"giEntries"`
	Fallbacks   uint64 `json:"fallbacks"`
	Fingerprint uint64 `json:"fingerprint"`
}

// golden is benchmark/golden.json: what every seed-independent output must
// equal. Cells are keyed by cell id (app/d/scale/threads/topology), so the
// full-size and the smoke-size cells live side by side; SweepSHA256 is the
// digest of `gwsweep -exp all -q` standard output.
type golden struct {
	Cells       map[string]digest        `json:"cells"`
	Checker     map[string]checkerGolden `json:"checker"`
	SweepSHA256 string                   `json:"sweepSHA256"`
}

const goldenFile = "golden.json"

func goldenPath(root string) string { return filepath.Join(root, "benchmark", goldenFile) }

func loadGolden(root string) (*golden, error) {
	b, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	g := &golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("decode %s: %w", goldenPath(root), err)
	}
	return g, nil
}

func (g *golden) write(root string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(b, '\n'), 0o644)
}

// merge folds what one child observed (in -write-golden mode) into g.
func (g *golden) merge(o *golden) {
	if g.Cells == nil {
		g.Cells = map[string]digest{}
	}
	if g.Checker == nil {
		g.Checker = map[string]checkerGolden{}
	}
	for k, v := range o.Cells {
		g.Cells[k] = v
	}
	for k, v := range o.Checker {
		g.Checker[k] = v
	}
	if o.SweepSHA256 != "" {
		g.SweepSHA256 = o.SweepSHA256
	}
}

// checkCell compares one cell's digest with the golden one and returns a
// failure message naming every differing field, or "" when they agree.
func (g *golden) checkCell(id string, got digest) string {
	want, ok := g.Cells[id]
	if !ok {
		return fmt.Sprintf("cell %s: no golden digest (known: %s)", id, strings.Join(sortedKeys(g.Cells), ", "))
	}
	if d := got.diff(want); len(d) > 0 {
		return fmt.Sprintf("cell %s: digest mismatch: %s", id, strings.Join(d, "; "))
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
