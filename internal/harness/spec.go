package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/workloads"
)

// codeVersion tags every cache key with the simulator generation. Bump it
// whenever a change alters simulation results (protocol semantics, timing
// model, workload inputs, quality metrics) so stale cached cells are never
// reused across incompatible code.
const codeVersion = "gw-sim-v2"

// Spec fully describes one evaluation cell: which application to run, at
// what scale and thread count, with which d-distance, and under which
// system configuration. A Spec is the unit of work the Runner executes and
// the sole input to the result-cache key — a simulation is a pure function
// of its Spec (see internal/sim: events fire in deterministic order).
type Spec struct {
	// App names a registered workload (workloads.Lookup).
	App string `json:"app"`
	// Scale grows the application's input linearly (1 = test scale).
	Scale int `json:"scale"`
	// Threads is the worker-thread count.
	Threads int `json:"threads"`
	// DDist is the scribble d-distance; 0 runs the baseline protocol with
	// scribbles demoted to conventional stores (the paper's d=0 bars).
	DDist int `json:"ddist"`
	// Profile enables the Fig. 2 store-similarity profiler.
	Profile bool `json:"profile"`
	// Protocol optionally names the coherence protocol table ("mesi",
	// "ghostwriter", "gw-noGI"). Empty keeps the legacy rule — positive
	// d-distances run Ghostwriter — and is omitted from JSON, so cache
	// keys minted before protocols were selectable stay valid: an
	// old-format key (no protocol field) means exactly the legacy rule.
	Protocol string `json:"protocol,omitempty"`
	// Topo names the interconnect topology ("mesh", "ring", "torus",
	// "xbar") and Nodes its node count. Empty/zero keep the Table 1 6x4
	// mesh and are omitted from JSON, so cache keys minted before the
	// topology layer stay valid: an old-format key (no topo fields) means
	// exactly the default mesh.
	Topo  string `json:"topo,omitempty"`
	Nodes int    `json:"nodes,omitempty"`
	// Config carries the remaining system knobs (policy, GI timeout, MSI,
	// error bound, ...). Protocol and ProfileSimilarity are derived from
	// DDist and Profile — see effective.
	Config ghostwriter.Config `json:"config"`
}

// specFor builds the cell for a RunApp-style call.
func specFor(name string, opt Options, ddist int, profile bool, policy ghostwriter.ScribblePolicy) Spec {
	return Spec{
		App:      name,
		Scale:    opt.Scale,
		Threads:  opt.Threads,
		DDist:    ddist,
		Profile:  profile,
		Protocol: opt.Protocol,
		Topo:     opt.Topo,
		Nodes:    opt.Nodes,
		Config:   ghostwriter.Config{Policy: policy},
	}
}

// effective returns the system configuration the cell actually builds:
// Config with the profiler flag applied and the protocol resolved. A named
// Protocol wins; otherwise the legacy rule applies — forced to Ghostwriter
// for positive d-distances (a d of 0 keeps Config.Protocol, which defaults
// to baseline MESI). Unknown names are rejected by executeSpec before any
// simulation; here they fall back to the Config protocol so that Key()
// stays total.
func (s Spec) effective() ghostwriter.Config {
	cfg := s.Config
	cfg.ProfileSimilarity = s.Profile
	if s.Topo != "" {
		cfg.Topo = s.Topo
	}
	if s.Nodes != 0 {
		cfg.Nodes = s.Nodes
	}
	switch {
	case s.Protocol != "":
		if p, err := ghostwriter.ParseProtocol(s.Protocol); err == nil {
			cfg.Protocol = p
		}
	case s.DDist > 0:
		cfg.Protocol = ghostwriter.Ghostwriter
	}
	return cfg
}

// keyMaterial is everything a cell's result may depend on. Machine is the
// fully derived machine.Config rather than the ghostwriter.Config shorthand
// so that any machine-level field — including ones no Config knob reaches
// today — is part of the key, and so that changing a Table 1 default
// invalidates old entries.
type keyMaterial struct {
	Version string         `json:"version"`
	Spec    Spec           `json:"spec"`
	Machine machine.Config `json:"machine"`
}

// Key returns the content-addressed result-cache key of the cell: a
// SHA-256 over the code version, the workload spec, and the full derived
// machine.Config, hex-encoded. Equal Specs on equal code produce equal
// keys; any field change produces a different key (cachekey_test.go holds
// the litmus battery and golden hashes guarding both).
func (s Spec) Key() string {
	return hashKey(codeVersion, s, s.effective().MachineConfig())
}

// hashKey is Key with every input explicit, so tests can perturb the
// machine configuration independently of the spec.
func hashKey(version string, s Spec, mc machine.Config) string {
	b, err := json.Marshal(keyMaterial{Version: version, Spec: s, Machine: mc})
	if err != nil {
		// All key fields are plain exported data; failure here is a
		// programming error (e.g. an unmarshalable type added to Config).
		panic("harness: cache key not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// executeSpec simulates one cell. It is the single execution path under the
// Runner; RunApp and every figure grid funnel through it.
func executeSpec(s Spec) (RunResult, error) {
	f, err := workloads.Lookup(s.App)
	if err != nil {
		return RunResult{}, err
	}
	if s.Protocol != "" {
		if _, err := ghostwriter.ParseProtocol(s.Protocol); err != nil {
			return RunResult{}, err
		}
	}
	if err := ghostwriter.ValidateTopology(s.Topo, s.Nodes); err != nil {
		return RunResult{}, err
	}
	app := f.New(s.Scale)
	sys := ghostwriter.New(s.effective())
	d := s.DDist
	if d == 0 {
		d = -1 // baseline: scribbles execute as conventional stores
	}
	app.SetDDist(d)
	app.Prepare(sys)
	cycles := sys.Run(s.Threads, app.Kernel)
	return RunResult{
		App:      f.Name,
		Suite:    f.Suite,
		Metric:   f.Metric,
		DDist:    s.DDist,
		Threads:  s.Threads,
		Cycles:   cycles,
		Stats:    *sys.Stats(),
		Energy:   *sys.Energy(),
		ErrorPct: quality.Measure(f.Metric, app.Output(sys), app.Golden()),
		Window:   sys.WindowStats(),
	}, nil
}
