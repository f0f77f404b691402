package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// job is one entry of a workload's fixed job list. key names the (algo,
// root, variant) pool entry whose reference digest the job must reproduce.
type job struct {
	kind     string // algorithm: bfs, sssp, cc, pagerank, kcore, lpa
	root     uint32 // source vertex of bfs and sssp
	graph    string // catalog graph (flashd-mixed)
	tcp      bool   // loopback TCP transport (flashd-mixed)
	resizeTo int    // workers after the scripted resize; 0 = none (flashd-mixed)
}

// key is the job's reference-digest key: jobs that must produce the same
// output share it (transport and resizes do not change a correct result).
func (j job) key() string {
	switch j.kind {
	case "bfs", "sssp":
		return fmt.Sprintf("%s/%s@%d", j.graph, j.kind, j.root)
	}
	return j.graph + "/" + j.kind
}

// env is what a workload's set-up and jobs may use: the seed, a private
// scratch directory, the flashd binary, and (in traced runs) the tracer and
// the per-layer recorder. A nil tracer and recorder make every record a no-op.
type env struct {
	seed   uint64
	dir    string
	flashd string
	tr     *tracer
	rec    *recorder
	parent int64 // span that set-up spans hang under
}

// span opens a set-up span; the returned func closes it.
func (e *env) span(name string) func() {
	id := e.tr.begin(name, e.parent, -1, 0)
	return func() { e.tr.end(id) }
}

// timed runs f under a set-up span and records its duration as a sample of
// the per-layer metric named like the span.
func (e *env) timed(name string, f func() error) error {
	t0 := time.Now()
	done := e.span(strings.TrimSuffix(name, "_ms"))
	err := f()
	done()
	e.rec.sample(name, ms(time.Since(t0)))
	return err
}

// jobCtx is handed to instance.run: the client, the job's root span, and
// the trace sinks.
type jobCtx struct {
	client int
	id     int
	span   int64
	tr     *tracer
	rec    *recorder
}

// call runs f under a child span of the job.
func (c jobCtx) call(name string, f func() error) error {
	id := c.tr.begin(name, c.span, c.id, c.client)
	err := f()
	c.tr.end(id)
	return err
}

// instance is one set-up workload: its job list, the reference run of a
// pool entry, the timed job itself, and the traced-run probes.
type instance interface {
	jobs() []job
	// reference computes the digest a correct run of j produces, from a
	// single-worker run; it is not part of set-up or of the timed phase.
	reference(j job) (uint64, error)
	// run executes j and returns the digest of its output as a func, so the
	// caller stops its clock once the result is in hand, before hashing.
	run(c jobCtx, j job) (func() uint64, error)
	// ready is called once the references are computed, before timing.
	ready()
	// probe takes the traced run's per-layer measurements that are not
	// per-job counters (micro-rounds, engine construction, block decode).
	probe(e *env) error
	close()
}

// workload is a named set-up function plus its closed-loop shape.
type workload struct {
	name    string
	clients int // closed-loop clients (each waits for its reply before sending again)
	setups  int // set-up repetitions; setup_s is their median
	warm    int // warm-up jobs run before timing, and before live_heap_mb is read
	setup   func(e *env) (instance, error)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rng returns the seeded generator of one workload's inputs.
func rng(seed uint64, salt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// buildList expands a fixed kind pattern into a job list of n jobs. Each
// rooted kind walks the pool of its graph in a seeded order, reshuffled on
// every pass, so every root carries the same weight in a run and a run's
// figures do not hang on which roots a random draw happened to repeat.
// Every run of a seed carries the same list; the kind at each position is
// the same for every seed.
func buildList(r *rand.Rand, pattern []job, pools map[string][]uint32, n int) []job {
	list := make([]job, n)
	order := map[string][]uint32{}
	for i := range list {
		j := pattern[i%len(pattern)]
		if j.kind == "bfs" || j.kind == "sssp" {
			k := j.graph + "/" + j.kind
			if len(order[k]) == 0 {
				order[k] = slices.Clone(pools[j.graph])
				r.Shuffle(len(order[k]), func(a, b int) { order[k][a], order[k][b] = order[k][b], order[k][a] })
			}
			j.root, order[k] = order[k][0], order[k][1:]
		}
		list[i] = j
	}
	return list
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	attempted int
	failed    int
	elapsed   time.Duration
	lat       []float64            // ms per attempted job; +Inf for a failed job
	byKind    map[string][]float64 // ms per correct job, by algorithm
}

// minJobs is the job count an untraced timed phase reaches before it may
// stop: with 100 jobs, p90 by nearest rank has ten samples beyond it.
const minJobs = 100

// maxPhase bounds a timed phase that is still short of minJobs, so a run of
// a badly slowed program still ends in time.
const maxPhase = 60 * time.Second

// closedLoop runs clients that each take the next job of the list, wait for
// its result and check it. A client stops taking jobs once d has passed and
// at least atLeast jobs have been taken, or once max(d, maxPhase) has
// passed. Every phase starts at the head of the list, so every run carries
// the same job sequence.
func closedLoop(inst instance, refs map[string]uint64, clients int, d time.Duration, atLeast int, tr *tracer, rec *recorder) phase {
	list := inst.jobs()
	limit := max(d, maxPhase)
	var next atomic.Int64
	var mu sync.Mutex
	ph := phase{byKind: map[string][]float64{}}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if el := time.Since(start); (el >= d && i >= atLeast) || el >= limit {
					return
				}
				j := list[i%len(list)]
				root := tr.begin("job."+j.kind, 0, i, c)
				t0 := time.Now()
				out, err := inst.run(jobCtx{client: c, id: i, span: root, tr: tr, rec: rec}, j)
				lat := ms(time.Since(t0))
				tr.end(root)
				if err == nil {
					if got, want := out(), refs[j.key()]; got != want {
						err = fmt.Errorf("digest %016x, reference %016x", got, want)
					}
				}
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if ph.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", i, j.key(), err)
					}
					ph.lat = append(ph.lat, math.Inf(1))
				} else {
					ph.lat = append(ph.lat, lat)
					ph.byKind[j.kind] = append(ph.byKind[j.kind], lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// merge adds phase q to p.
func (p phase) merge(q phase) phase {
	if p.byKind == nil {
		p.byKind = map[string][]float64{}
	}
	p.attempted += q.attempted
	p.failed += q.failed
	p.elapsed += q.elapsed
	p.lat = append(p.lat, q.lat...)
	for k, v := range q.byKind {
		p.byKind[k] = append(p.byKind[k], v...)
	}
	return p
}

func (p phase) jobsPerSec() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// latency is the phase's p-quantile job latency. A failed job sorts beyond
// every limit; when the quantile lands on one, it reads as the length of the
// whole phase, the most any job of it could have taken, so the result line
// stays a number.
func (p phase) latency(q float64) float64 {
	v := percentile(p.lat, q)
	if math.IsInf(v, 1) {
		return ms(p.elapsed)
	}
	return v
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile: with 100 samples p=0.9 leaves
// exactly ten beyond it. Failed jobs (+Inf) sort beyond every limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digestOf hashes the bytes of a result slice.
func digestOf[T int32 | uint32 | float32 | float64](xs []T) uint64 {
	h := fnv.New64a()
	if len(xs) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*int(unsafe.Sizeof(xs[0]))))
	}
	return h.Sum64()
}

func digestBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// liveHeapMB is the Go heap in use after a forced collection, with
// everything the workload holds still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runtimeCounters reads the allocation and GC counters the traced phase
// reports as deltas.
func runtimeCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// cpuSteal reads the host's cumulative stolen and total CPU ticks; the
// share stolen during the timed phase explains runs the hypervisor slowed.
// Zero on hosts without /proc/stat.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// measured runs one untraced timed phase and returns it with the share of
// host CPU stolen during it, in percent: a diagnostic printed in the
// summary line, since steal stalls both workers at the next barrier.
func measured(inst instance, refs map[string]uint64, clients int, d time.Duration) (phase, float64) {
	s0, t0 := cpuSteal()
	ph := closedLoop(inst, refs, clients, d, minJobs, nil, nil)
	s1, t1 := cpuSteal()
	return ph, 100 * float64(s1-s0) / float64(max(t1-t0, 1))
}

// execute runs one workload: set-up (several times, for the setup_s
// median), reference digests, a fixed-count warm-up, then the timed phase.
// A traced run splits the timed phase into untraced and traced quarters and
// adds the per-layer probes.
func execute(wl *workload, e *env, o options, h host) (*result, error) {
	if o.trace {
		e.tr = newTracer()
		e.rec = newRecorder()
	}
	var inst instance
	setups := make([]float64, 0, wl.setups)
	for i := 0; i < wl.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		e.parent = e.tr.begin("setup", 0, -1, 0)
		var err error
		inst, err = wl.setup(e)
		e.tr.end(e.parent)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	refs := map[string]uint64{}
	for _, j := range inst.jobs() {
		if _, ok := refs[j.key()]; ok {
			continue
		}
		d, err := inst.reference(j)
		if err != nil {
			return nil, fmt.Errorf("%s reference %s: %w", wl.name, j.key(), err)
		}
		refs[j.key()] = d
	}
	switch o.corrupt {
	case "one":
		refs[inst.jobs()[0].key()] ^= 1
	case "all":
		for k := range refs {
			refs[k] ^= 1
		}
	}
	inst.ready()
	// Warm-up: the first wl.warm jobs of the list, run and checked by the
	// workload's clients but not timed, so lazily built caches and pools are
	// filled before timing. live_heap_mb is read here, after a fixed job
	// count: flashd keeps every finished job, so a heap read after the timed
	// phase would follow the host's job rate.
	warm := closedLoop(inst, refs, wl.clients, 0, wl.warm, nil, nil)
	heap := liveHeapMB()

	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		ph, steal := measured(inst, refs, wl.clients, d)
		res.Attempted, res.Failed = warm.attempted+ph.attempted, warm.failed+ph.failed
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["jobs_per_s"] = metric{ph.jobsPerSec(), "1/s"}
		res.Metrics["job_ms_p50"] = metric{ph.latency(0.5), "ms"}
		res.Metrics["job_ms_p90"] = metric{ph.latency(0.9), "ms"}
		res.Metrics["live_heap_mb"] = metric{heap, "MB"}
		byKind := map[string]float64{}
		for k, v := range ph.byKind {
			byKind[k] = median(v)
		}
		if sj, err := json.Marshal(map[string]any{"summary": map[string]any{
			"jobs": ph.attempted, "failed": ph.failed, "failed_frac": float64(ph.failed) / float64(ph.attempted),
			"warmup_jobs": warm.attempted, "elapsed_s": ph.elapsed.Seconds(), "setup_s": setups,
			"ms_p50_by_kind": byKind, "host_steal_pct": steal,
		}}); err == nil {
			fmt.Println(string(sj))
		}
	} else {
		// Alternate untraced and traced quarters, so drift over the run
		// does not read as tracing overhead.
		var plain, traced phase
		var a, g float64
		for q := 0; q < 4; q++ {
			if q%2 == 0 {
				plain = plain.merge(closedLoop(inst, refs, wl.clients, d/4, 0, nil, nil))
				continue
			}
			a0, g0 := runtimeCounters()
			traced = traced.merge(closedLoop(inst, refs, wl.clients, d/4, 0, e.tr, e.rec))
			a1, g1 := runtimeCounters()
			a, g = a+a1-a0, g+g1-g0
		}
		n := float64(traced.attempted)
		e.rec.set("runtime.alloc_mb_per_job", a/1e6/n)
		e.rec.set("runtime.gc_cycles_per_job", g/n)
		if u := plain.jobsPerSec(); u > 0 {
			e.rec.set("trace.overhead_pct", 100*(u-traced.jobsPerSec())/u)
		}
		for kind, lats := range traced.byKind {
			e.rec.set("algo."+kind+"_ms_p50", median(lats))
		}
		e.parent = e.tr.begin("probe", 0, -1, 0)
		err := inst.probe(e)
		e.tr.end(e.parent)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", wl.name, err)
		}
		res.Attempted = warm.attempted + plain.attempted + traced.attempted
		res.Failed = warm.failed + plain.failed + traced.failed
		res.Metrics = e.rec.layerMetrics(n)
		if err := writeTrace(e.tr, o, h, setups, res.Metrics); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
