package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no instrumentation of its own).
type span struct {
	id, parent int64
	name       string
	job        int // job index; -1 for set-up and probes
	tid        int // client
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int64, job, tid int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int64(len(t.spans) + 1), parent: parent, name: name, job: job, tid: tid, start: now, end: -1})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered, reach := time.Duration(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeTrace writes the spans as a trace-event JSON file (loadable in
// chrome://tracing or Perfetto) and a per-layer self-time summary next to
// it, with the run's per-layer metrics, under <workdir>/traces.
func writeTrace(t *tracer, o options, h host, setups []float64, layers map[string]metric) error {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	self := t.selfTimes()
	byLayer := map[string]float64{}
	bySpan := map[string]float64{}
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": s.id, "parent": s.parent, "job": s.job,
				"self_us": float64(self[i].Nanoseconds()) / 1e3},
		})
		layer, _, _ := strings.Cut(s.name, ".")
		byLayer[layer] += ms(self[i])
		bySpan[s.name] += ms(self[i])
	}
	if err := writeJSON(base+".trace.json", map[string]any{"traceEvents": events, "otherData": h}); err != nil {
		return err
	}
	err := writeJSON(base+".summary.json", map[string]any{
		"host": h, "workload": o.workload, "seed": o.seed, "spans": len(t.spans),
		"setup_s": setups, "self_ms_by_layer": byLayer, "self_ms_by_span": bySpan, "per_layer": layers,
	})
	if err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s.{trace,summary}.json\n", base)
	}
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recorder accumulates the per-layer numbers of a traced run: sums (reported
// per job), samples (reported as their median) and set values. A nil
// *recorder drops everything.
type recorder struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
	vals    map[string]float64
}

func newRecorder() *recorder {
	return &recorder{sums: map[string]float64{}, samples: map[string][]float64{}, vals: map[string]float64{}}
}

func (r *recorder) sum(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[name] = v
	r.mu.Unlock()
}

// How a per-layer metric is reduced from what the recorder holds.
const (
	perJob = iota // sum over the traced jobs / traced job count
	med           // median of the samples
	value         // a value set once
	total         // sum over the traced phase
)

// layerMetric names one per-layer metric, its unit and its reduction.
type layerMetric struct {
	name, unit string
	reduce     int
}

// layerTable is every per-layer metric, in module order. A workload that
// does not exercise a layer reports 0 for it.
var layerTable = []layerMetric{
	{"graph.build_ms", "ms", med},
	{"graph.blockfile_ms", "ms", med},
	{"graph.block_decode_us", "us", med},
	{"graph.block_lookups_per_job", "count", perJob},
	{"graph.block_misses_per_job", "count", perJob},
	{"graph.block_hit_ratio", "ratio", value},
	{"graph.block_evictions_per_job", "count", perJob},
	{"graph.block_mb_dense_per_job", "MB", perJob},
	{"graph.block_mb_sparse_per_job", "MB", perJob},
	{"partition.build_ms", "ms", med},
	{"partition.replication_factor", "ratio", value},
	{"partition.shared_mb", "MB", value},
	{"core.engine_new_ms", "ms", med},
	{"core.supersteps_per_job", "count", perJob},
	{"core.compute_ms_per_job", "ms", perJob},
	{"core.state_kb_per_job", "KB", perJob},
	{"core.resize_ms_per_job", "ms", value},
	{"core.migrated_kb_per_job", "KB", value},
	{"comm.wait_ms_per_job", "ms", perJob},
	{"comm.serialize_ms_per_job", "ms", perJob},
	{"comm.messages_per_job", "count", perJob},
	{"comm.mb_per_job", "MB", perJob},
	{"comm.mem_round_us", "us", med},
	{"comm.tcp_round_us", "us", med},
	{"comm.tcp_setup_ms", "ms", med},
	{"comm.retries_per_job", "count", perJob},
	{"algo.bfs_ms_p50", "ms", value},
	{"algo.sssp_ms_p50", "ms", value},
	{"algo.cc_ms_p50", "ms", value},
	{"algo.pagerank_ms_p50", "ms", value},
	{"algo.kcore_ms_p50", "ms", value},
	{"algo.lpa_ms_p50", "ms", value},
	{"serve.catalog_load_ms", "ms", med},
	{"serve.submit_ms_p50", "ms", med},
	{"serve.overhead_ms_p50", "ms", med},
	{"serve.result_kb_p50", "KB", med},
	{"serve.busy_frac", "ratio", value},
	{"serve.rejected", "count", total},
	{"cluster.run_ms_p50", "ms", med},
	{"cluster.graph_build_ms", "ms", med},
	{"cluster.inproc_ms_p50", "ms", med},
	{"cluster.overhead_ms_p50", "ms", value},
	{"cluster.store_kb_per_job", "KB", perJob},
	{"cluster.restarts", "count", total},
	{"runtime.alloc_mb_per_job", "MB", value},
	{"runtime.gc_cycles_per_job", "count", value},
	{"trace.overhead_pct", "%", value},
}

// layerMetrics reduces the recorder to the per-layer result map; jobs is
// the traced phase's attempted job count.
func (r *recorder) layerMetrics(jobs float64) map[string]metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l := r.sums["graph.block_lookups_per_job"]; l > 0 {
		r.vals["graph.block_hit_ratio"] = 1 - r.sums["graph.block_misses_per_job"]/l
	}
	out := make(map[string]metric, len(layerTable))
	for _, m := range layerTable {
		var v float64
		switch m.reduce {
		case perJob:
			if jobs > 0 {
				v = r.sums[m.name] / jobs
			}
		case med:
			v = median(r.samples[m.name])
		case value:
			v = r.vals[m.name]
		case total:
			v = r.sums[m.name]
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
