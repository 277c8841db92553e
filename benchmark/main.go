// Command benchmark is the repository's performance benchmark: seven named
// workloads, the end-to-end metrics BENCHMARK.json gates on, and a traced
// run that attributes host time to the layers. See README.md in this
// directory for what every workload and metric is for.
//
//	go run ./benchmark                          # every workload, human table
//	go run ./benchmark -runs 3 -out a.json      # three runs of each, results file
//	go run ./benchmark -agree a.json b.json     # do two result sets agree?
//	go run ./benchmark --workload sweep --seed 3 --seconds 10 --trace 0
//
// The last form is the acceptance driver's: one workload, and one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ghostwriter/internal/harness"
)

// workloadList is the benchmark's workloads, in the order BENCHMARK.json
// names them.
var workloadList = []workload{
	{Name: "cell_hits", pass: cellPass(hitsCells), minPasses: 3},
	{Name: "cell_sharing", pass: cellPass(sharingCells), minPasses: 3},
	{Name: "cell_scribble", pass: cellPass(scribbleCells), minPasses: 3},
	{Name: "torus256", pass: cellPass(torusCells), minPasses: 3, nocProbe: "noc.send_ns_per_msg.torus256"},
	{Name: "sweep", pass: sweepPass, minPasses: 4, noWarmup: true},
	// fleet_wal is timed on the CPU clock, which leaves no waiting to dodge:
	// what moves its samples is the host switching between two speeds, and
	// the median does not follow until half the samples have.
	{Name: "fleet_wal", pass: fleetPass, minPasses: 3, center: median},
	{Name: "checker", pass: checkerPass, minPasses: 3},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line flags.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	runs        int
	out         string
	agree       bool
	writeGolden bool
	// child marks the re-exec'd process that runs one workload on a fresh
	// heap; dir is the set-up directory its parent prepared.
	child bool
	dir   string
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's one-line JSON result (default: every workload)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: untraced runs per workload")
	flag.StringVar(&o.out, "out", "", "also write the full results (samples, spans, host) to this JSON file")
	flag.BoolVar(&o.agree, "agree", false, "compare two result files: -agree A.json B.json")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "rewrite benchmark/golden.json from this run (benchmark PRs only)")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.StringVar(&o.dir, "dir", "", "internal: set-up directory for -child")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	switch {
	case o.agree:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree needs two result files")
			return 2
		}
		return agree(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	case o.child:
		return runChild(root, o)
	}
	if o.workload != "" {
		if _, ok := lookupWorkload(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
	}
	return runParent(root, spec, o)
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// scratchRoot is where everything the benchmark writes goes: inside the
// checkout and named in .gitignore.
const scratchRoot = ".bench_build"

// mkScratch creates this process's scratch directory inside the checkout.
func mkScratch(root string) (string, error) {
	dir := filepath.Join(root, scratchRoot, fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupReps is how many times the parent sets up; setup_s is the median.
const setupReps = 3

// setup prepares dir for the workloads: it builds gwsweep from source,
// pre-simulates the results fleet_wal replays, and generates every seeded
// input. Every workload's child finds what it needs there.
func setup(root, dir string, seed int64, sz sizes) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "gwsweep"), "./cmd/gwsweep")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("build gwsweep: %w: %s", err, out)
	}

	items, err := harness.Manifest(baseExperiment, harness.DefaultOptions())
	if err != nil {
		return err
	}
	disk, err := harness.OpenCache(filepath.Join(dir, "base"))
	if err != nil {
		return err
	}
	jobs := make([]harness.Job, len(items))
	for i, it := range items {
		jobs[i] = harness.Job{Label: it.Label, Spec: it.Spec}
	}
	for _, c := range (&harness.Runner{Cache: disk}).Run(jobs) {
		if c.Err != nil {
			return fmt.Errorf("pre-simulate %s: %w", c.Job.Label, c.Err)
		}
	}

	in, err := generateInputs(seed, sz)
	if err != nil {
		return err
	}
	return in.save(filepath.Join(dir, "inputs.gob"))
}

// newEnv opens a set-up directory for one workload run.
func newEnv(root, dir string, sz sizes) (*env, error) {
	in, err := loadInputs(filepath.Join(dir, "inputs.gob"))
	if err != nil {
		return nil, err
	}
	g, err := loadGolden(root)
	if err != nil {
		return nil, err
	}
	return &env{
		root: root, dir: dir, gwsweep: filepath.Join(dir, "gwsweep"),
		baseDir: filepath.Join(dir, "base"), in: in, sz: sz, golden: g,
	}, nil
}

// runChild runs one workload in this (fresh) process and writes its report
// to standard output for the parent.
func runChild(root string, o options) int {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	e, err := newEnv(root, o.dir, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	e.seconds, e.warmup, e.trace = o.seconds, true, o.trace == 1
	if o.writeGolden {
		e.record = &golden{Cells: map[string]digest{}, Checker: map[string]checkerGolden{}}
		e.seconds, e.warmup = 0, false
	}
	rep := w.run(e)
	rep.Seed = o.seed
	rep.Observed = e.record
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// peakRSSKB reads a process's peak resident set (VmHWM) in kB from
// /proc/<pid>/status; pid may be "self". It returns 0 when the process is
// gone. VmHWM is used, not getrusage: Linux carries the forking parent's
// peak over an exec into the child's ru_maxrss, which would floor every
// small process at its parent's footprint.
func peakRSSKB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb
			}
		}
	}
	return 0
}

// resetPeakRSS resets this process's VmHWM to its current resident set, so
// that the next reading is the peak since now: every pass gets its own
// peak, one more sample set for the run to reduce, and one late garbage
// collection does not set the run's figure. Where the kernel does not allow
// it the peak simply keeps growing over the run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// spawn re-execs this binary to run one workload on a fresh heap.
func spawn(o options, dir string, w workload, trace int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.Name, "-dir", dir,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace)}
	if o.writeGolden {
		args = append(args, "-write-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	rep := &report{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("workload %s: undecodable report: %w", w.Name, err)
	}
	return rep, nil
}

// host fingerprints the machine the numbers were taken on.
type host struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// results is the -out file: everything one invocation measured.
type results struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Sizes   sizes     `json:"sizes"`
	SetupS  []float64 `json:"setup_s"`
	Runs    []*report `json:"runs"`
}

func runParent(root string, spec *benchSpec, o options) int {
	scratch, err := mkScratch(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	res := &results{
		Host: host{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Seed: o.seed, Seconds: o.seconds, Sizes: fullSizes,
	}
	var dir string
	for i := 0; i < setupReps; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := setup(root, dir, o.seed, fullSizes); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: set-up:", err)
			return 1
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}

	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	switch {
	case o.workload != "":
		w, _ := lookupWorkload(o.workload)
		jobs = []job{{w, o.trace}}
	case o.writeGolden:
		for _, w := range workloadList {
			jobs = append(jobs, job{w, 0})
		}
	default:
		for _, w := range workloadList {
			for i := 0; i < o.runs; i++ {
				jobs = append(jobs, job{w, 0})
			}
			jobs = append(jobs, job{w, 1})
		}
	}
	for _, j := range jobs {
		rep, err := spawn(o, dir, j.w, j.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.Runs = append(res.Runs, rep)
	}

	if o.writeGolden {
		return writeGolden(root, res)
	}
	printTable(os.Stdout, spec, res)
	if o.out != "" {
		if err := writeResults(o.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	failed := 0
	for _, r := range res.Runs {
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", r.Workload, f)
		}
	}
	if o.workload != "" {
		// The acceptance driver reads the last line of standard output.
		fmt.Println(driverLine(spec, res, res.Runs[0]))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeGolden folds what the smoke-size and full-size passes observed into
// benchmark/golden.json.
func writeGolden(root string, res *results) int {
	g := &golden{}
	for _, r := range res.Runs {
		if r.Observed != nil {
			g.merge(r.Observed)
		}
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", r.Workload, f)
		}
	}
	smoke, err := observeSmoke(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: smoke-size golden:", err)
		return 1
	}
	g.merge(smoke)
	if err := g.write(root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s: %d cells, %d checker explorations\n", goldenPath(root), len(g.Cells), len(g.Checker))
	return 0
}

// observeSmoke runs the four cell workloads once at smoke size and returns
// the digests they produced, so that -write-golden also pins the cells the
// unit test's smoke pass compares.
func observeSmoke(root string) (*golden, error) {
	in, err := generateInputs(1, smokeSizes)
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, in: in, sz: smokeSizes,
		record: &golden{Cells: map[string]digest{}, Checker: map[string]checkerGolden{}},
	}
	for _, name := range []string{"cell_hits", "cell_sharing", "cell_scribble", "torus256"} {
		w, _ := lookupWorkload(name)
		if p := w.pass(e); p.Failed > 0 {
			return nil, fmt.Errorf("%s at smoke size: %v", name, p.Failures)
		}
	}
	return e.record, nil
}

func writeResults(path string, res *results) error {
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
