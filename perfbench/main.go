// Command perfbench is the repository benchmark: five closed-loop workloads
// that drive FLASH only through its public entry points (the algo package,
// flash.GraphHandle, graph block files, the flashd HTTP handler and the
// cluster coordinator), check every job's output against a reference digest,
// and print one JSON result line. See README.md in this directory.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload social-lib --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	flashd   string // path of the compiled flashd binary (cluster-jobs)
	workdir  string // scratch space for block files, stores and traces
	corrupt  string // "one" or "all": corrupt reference digests (self-test of the gate)
	commit   string
}

func main() {
	var o options
	var traceN int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; graphs, root pool and job list derive from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&o.flashd, "flashd", "", "path of the compiled flashd binary")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for block files, stores and trace output")
	flag.StringVar(&o.corrupt, "corrupt-digest", "", `"one" or "all": corrupt that many reference digests (the run must fail)`)
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the host fingerprint")
	flag.BoolVar(&selftest, "selftest", false, "run the benchmark's own self-test and exit")
	flag.Parse()
	o.trace = traceN != 0

	if err := checkHost(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.workdir == "" || o.flashd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --workdir and --flashd are required (use perfbench/run.sh)")
		os.Exit(2)
	}
	if selftest {
		if err := runSelfTest(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test failed:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: self-test passed")
		return
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkHost refuses hosts where the workloads' two workers or two clients
// cannot run on two cores at once.
func checkHost() error {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("GOMAXPROCS=%d: every workload runs two workers or two clients and needs at least 2", p)
	}
	return nil
}

// host is the fingerprint printed before every result and stored in every
// trace summary.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets up the named workload, runs its timed phase (and, with
// --trace 1, the traced phase and the per-layer probes) and tears it down.
func runWorkload(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.corrupt != "" && o.corrupt != "one" && o.corrupt != "all" {
		return nil, fmt.Errorf(`--corrupt-digest %q: want "one" or "all"`, o.corrupt)
	}
	h := fingerprint(o.commit)
	if hj, err := json.Marshal(map[string]any{"host": h, "workload": o.workload, "seed": o.seed, "trace": o.trace}); err == nil {
		fmt.Println(string(hj))
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := &env{seed: o.seed, dir: dir, flashd: o.flashd}
	return execute(wl, env, o, h)
}
