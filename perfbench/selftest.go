package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// endToEnd is every end-to-end metric an untraced run prints, with its unit.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"jobs_per_s":   "1/s",
	"job_ms_p50":   "ms",
	"job_ms_p90":   "ms",
	"live_heap_mb": "MB",
}

// exercised lists, per workload, the per-layer metrics its traced run must
// report as nonzero: the layers the workload exists to exercise.
var exercised = map[string][]string{
	"social-lib": {"graph.build_ms", "partition.build_ms", "core.supersteps_per_job", "core.compute_ms_per_job",
		"core.state_kb_per_job", "comm.wait_ms_per_job", "comm.serialize_ms_per_job", "comm.messages_per_job",
		"comm.mb_per_job", "algo.bfs_ms_p50", "algo.sssp_ms_p50", "algo.cc_ms_p50", "algo.pagerank_ms_p50"},
	"road-sparse": {"graph.build_ms", "partition.build_ms", "core.engine_new_ms", "core.supersteps_per_job",
		"core.compute_ms_per_job", "core.state_kb_per_job", "comm.wait_ms_per_job", "comm.mem_round_us",
		"algo.bfs_ms_p50", "algo.sssp_ms_p50"},
	"ooc-xxl": {"graph.build_ms", "graph.blockfile_ms", "graph.block_decode_us", "graph.block_lookups_per_job",
		"graph.block_misses_per_job", "graph.block_hit_ratio", "graph.block_evictions_per_job",
		"graph.block_mb_dense_per_job", "graph.block_mb_sparse_per_job", "partition.build_ms",
		"partition.replication_factor", "partition.shared_mb", "core.engine_new_ms", "core.compute_ms_per_job",
		"core.state_kb_per_job", "algo.bfs_ms_p50", "algo.cc_ms_p50"},
	"flashd-mixed": {"graph.build_ms", "partition.build_ms", "partition.replication_factor", "partition.shared_mb",
		"core.engine_new_ms", "core.supersteps_per_job", "core.state_kb_per_job", "core.resize_ms_per_job",
		"core.migrated_kb_per_job", "comm.tcp_round_us", "comm.tcp_setup_ms", "serve.catalog_load_ms",
		"serve.submit_ms_p50", "serve.overhead_ms_p50", "serve.result_kb_p50", "serve.busy_frac",
		"algo.bfs_ms_p50", "algo.sssp_ms_p50", "algo.cc_ms_p50", "algo.pagerank_ms_p50", "algo.kcore_ms_p50", "algo.lpa_ms_p50"},
	"cluster-jobs": {"graph.build_ms", "cluster.run_ms_p50", "cluster.graph_build_ms", "cluster.inproc_ms_p50",
		"cluster.store_kb_per_job", "comm.tcp_round_us", "algo.bfs_ms_p50", "algo.cc_ms_p50", "algo.sssp_ms_p50",
		"algo.pagerank_ms_p50"},
}

// runSelfTest checks the benchmark itself: BENCHMARK.json (when present in
// the working directory) names exactly the metrics the program prints; a
// short untraced and traced run of every workload prints every metric with
// its unit, fails no job and reports the exercised layers as nonzero; and
// runs with one or with every reference digest corrupted count the failed
// jobs, still print a result line and exit nonzero.
func runSelfTest(o options) error {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			res, code, err := runSelf(o, w, trace, "")
			if err != nil {
				return err
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s trace=%s: exit %d, correct=%v, %d of %d jobs failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = map[string]string{}
				for _, m := range layerTable {
					want[m.name] = m.unit
				}
			}
			if err := sameMetrics(res.Metrics, want); err != nil {
				return fmt.Errorf("%s trace=%s: %w", w, trace, err)
			}
			if trace == "1" {
				for _, name := range exercised[w] {
					if res.Metrics[name].Value <= 0 {
						return fmt.Errorf("%s: traced run reports %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: self-test %s trace=%s: %d jobs, all metrics present\n", w, trace, res.Attempted)
		}
	}
	for _, corrupt := range []string{"one", "all"} {
		res, code, err := runSelf(o, "road-sparse", "0", corrupt)
		if err != nil {
			return err
		}
		if code != 1 || res.Correct || res.Failed == 0 || (corrupt == "all" && res.Failed != res.Attempted) {
			return fmt.Errorf("corrupted reference digests (%s): exit %d, correct=%v, %d of %d jobs failed; want exit 1 and every corrupted job counted",
				corrupt, code, res.Correct, res.Failed, res.Attempted)
		}
		if err := sameMetrics(res.Metrics, endToEnd); err != nil {
			return fmt.Errorf("corrupted reference digests (%s): %w", corrupt, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: self-test corrupted digests (%s): %d of %d jobs failed, exit %d\n", corrupt, res.Failed, res.Attempted, code)
	}
	return nil
}

// runSelf runs this binary on one workload and parses the last line of its
// output. Untraced runs last until their 100 jobs are done; traced runs get
// four seconds, so each traced quarter reaches every
// job kind of the pattern.
func runSelf(o options, w, trace, corrupt string) (*result, int, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	seconds := "1"
	if trace == "1" {
		seconds = "4"
	}
	args := []string{"--workload", w, "--seed", "1", "--seconds", seconds, "--trace", trace,
		"--flashd", o.flashd, "--workdir", o.workdir, "--commit", o.commit}
	if corrupt != "" {
		args = append(args, "--corrupt-digest", corrupt)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err = cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		return nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, code, fmt.Errorf("%s trace=%s: last line is not a result (exit %d): %v", w, trace, code, err)
	}
	return &res, code, nil
}

func sameMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics printed, want %d", len(got), len(want))
	}
	return nil
}

// checkBenchmarkJSON verifies that BENCHMARK.json names the workloads and
// metrics this program implements, with the same units. A missing file is
// not an error (the program can run without it).
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("%s names workload %q, which the program does not have", path, w.Name)
		}
	}
	toMap := func(ns []named) map[string]metric {
		m := map[string]metric{}
		for _, n := range ns {
			m[n.Name] = metric{Unit: n.Unit}
		}
		return m
	}
	layers := map[string]string{}
	for _, m := range layerTable {
		layers[m.name] = m.unit
	}
	if err := sameMetrics(toMap(b.EndToEnd), endToEnd); err != nil {
		return fmt.Errorf("%s end_to_end: %w", path, err)
	}
	if err := sameMetrics(toMap(b.PerLayer), layers); err != nil {
		return fmt.Errorf("%s per_layer: %w", path, err)
	}
	return nil
}
