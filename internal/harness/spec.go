package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/workloads"
)

// codeVersion tags every cache key with the simulator generation. Bump it
// whenever a change alters simulation results (protocol semantics, timing
// model, workload inputs, quality metrics) so stale cached cells are never
// reused across incompatible code.
const codeVersion = "gw-sim-v3"

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
	// Config is the simulated system: protocol table, topology, profiler
	// and every other knob. An unnamed protocol is resolved from DDist —
	// see effective.
	Config ghostwriter.Config `json:"config"`
}

// specFor builds the cell for a RunApp-style call.
func specFor(name string, opt Options, ddist int, profile bool) Spec {
	return Spec{
		App:     name,
		Scale:   opt.Scale,
		Threads: opt.Threads,
		DDist:   ddist,
		Config: ghostwriter.Config{
			Protocol:          ghostwriter.Protocol(opt.Protocol),
			Topo:              opt.Topo,
			Nodes:             opt.Nodes,
			ProfileSimilarity: profile,
		},
	}
}

// effective returns the system configuration the cell actually builds:
// Config, with an unnamed protocol resolved to Ghostwriter for positive
// d-distances (the figures' semantics; d = 0 keeps the baseline).
func (s Spec) effective() ghostwriter.Config {
	cfg := s.Config
	if cfg.Protocol == "" && s.DDist > 0 {
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

// lookupApp resolves a spec's app name; a test substitutes a kernel that
// breaks a Thread API contract, to see Simulate report it.
var lookupApp = workloads.Lookup

// Simulate runs one cell and returns its result together with the system
// it ran on, for callers that inspect the machine afterwards (ghostwriter
// -cores/-noc). It is the single execution path: the Runner, RunApp, every
// figure grid and the ghostwriter command all funnel through it. A spec
// the machine cannot run (an unknown app, protocol or topology, a scale
// below 1 or too large for the host, more threads than cores or none) is an
// error, not a panic: a panic raised while the cell is built or run comes
// back as an error that names the app.
func Simulate(s Spec) (res RunResult, sys *ghostwriter.System, err error) {
	f, err := lookupApp(s.App)
	if err != nil {
		return RunResult{}, nil, err
	}
	if s.Config.Protocol != "" {
		if _, err := ghostwriter.ParseProtocol(string(s.Config.Protocol)); err != nil {
			return RunResult{}, nil, err
		}
	}
	if err := ghostwriter.ValidateTopology(s.Config.Topo, s.Config.Nodes); err != nil {
		return RunResult{}, nil, err
	}
	if s.Scale < 1 {
		return RunResult{}, nil, fmt.Errorf("scale %d: must be at least 1", s.Scale)
	}
	if cores := s.effective().MachineConfig().Cores; s.Threads < 1 || s.Threads > cores {
		return RunResult{}, nil, fmt.Errorf("threads %d: must be 1 to %d, the machine's core count", s.Threads, cores)
	}
	defer func() {
		if p := recover(); p != nil {
			res, sys, err = RunResult{}, nil, fmt.Errorf("%s: simulation panicked: %v", s.App, p)
		}
	}()
	app := f.New(s.Scale)
	sys = ghostwriter.New(s.effective())
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
	}, sys, nil
}
