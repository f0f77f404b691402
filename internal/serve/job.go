package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
)

// JobParams carries the per-algorithm and per-run knobs of a job request.
// Optional fields are pointers so "absent" and "zero" stay distinguishable,
// letting the parser reject explicit bad values while defaulting silently.
type JobParams struct {
	Root     *uint64  `json:"root,omitempty"`      // bfs, sssp, bc source vertex
	MaxIters *int     `json:"max_iters,omitempty"` // pagerank, lpa
	Eps      *float64 `json:"eps,omitempty"`       // pagerank convergence bound
	Workers  *int     `json:"workers,omitempty"`   // engine worker count
	Threads  *int     `json:"threads,omitempty"`   // intra-worker threads
	TCP      *bool    `json:"tcp,omitempty"`       // loopback TCP transport
	ResizeAt *int     `json:"resize_at,omitempty"` // superstep to resize after
	ResizeTo *int     `json:"resize_to,omitempty"` // target worker count
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	Graph  string    `json:"graph"`
	Algo   string    `json:"algo"`
	Tenant string    `json:"tenant,omitempty"`
	Params JobParams `json:"params"`
}

// maxRoot bounds source vertex ids at parse time; graph.VID is uint32, so
// anything above it can never name a vertex.
const maxRoot = math.MaxUint32

// ParseJobRequest decodes and validates a job request body. It is strict:
// unknown fields, trailing data, non-finite floats, and out-of-range values
// are all typed RequestErrors — this is the fuzz target, so every rejection
// path must be a clean error, never a panic. Graph existence and root-vs-size
// checks need the catalog and happen at submission.
func ParseJobRequest(body []byte) (*JobRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &RequestError{Field: "body", Reason: err.Error()}
	}
	// Reject trailing payload after the request object ("{}garbage").
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &RequestError{Field: "body", Reason: "trailing data after request object"}
	}
	if req.Graph == "" {
		return nil, &RequestError{Field: "graph", Reason: "missing"}
	}
	if req.Algo == "" {
		return nil, &RequestError{Field: "algo", Reason: "missing"}
	}
	spec, ok := algoRegistry[req.Algo]
	if !ok {
		return nil, &UnknownAlgoError{Algo: req.Algo}
	}
	p := req.Params
	if p.Root != nil && *p.Root > maxRoot {
		return nil, &RequestError{Field: "root", Reason: fmt.Sprintf("%d exceeds max vertex id %d", *p.Root, uint64(maxRoot))}
	}
	if spec.needsRoot && p.Root == nil {
		return nil, &RequestError{Field: "root", Reason: fmt.Sprintf("required by algo %q", req.Algo)}
	}
	if p.MaxIters != nil && *p.MaxIters <= 0 {
		return nil, &RequestError{Field: "max_iters", Reason: fmt.Sprintf("must be positive, got %d", *p.MaxIters)}
	}
	if p.Eps != nil && (math.IsNaN(*p.Eps) || math.IsInf(*p.Eps, 0) || *p.Eps < 0) {
		return nil, &RequestError{Field: "eps", Reason: "must be finite and non-negative"}
	}
	if p.Workers != nil && (*p.Workers < 1 || *p.Workers > 256) {
		return nil, &RequestError{Field: "workers", Reason: fmt.Sprintf("must be in [1,256], got %d", *p.Workers)}
	}
	if p.Threads != nil && (*p.Threads < 1 || *p.Threads > 256) {
		return nil, &RequestError{Field: "threads", Reason: fmt.Sprintf("must be in [1,256], got %d", *p.Threads)}
	}
	if (p.ResizeAt == nil) != (p.ResizeTo == nil) {
		return nil, &RequestError{Field: "resize_at", Reason: "resize_at and resize_to must be set together"}
	}
	if p.ResizeAt != nil && *p.ResizeAt < 1 {
		return nil, &RequestError{Field: "resize_at", Reason: "must be a superstep >= 1"}
	}
	if p.ResizeTo != nil && (*p.ResizeTo < 1 || *p.ResizeTo > 256) {
		return nil, &RequestError{Field: "resize_to", Reason: fmt.Sprintf("must be in [1,256], got %d", *p.ResizeTo)}
	}
	return &req, nil
}

// algoSpec describes one servable algorithm: its parameter needs and the
// adapter that invokes the algo package with the job's engine options. The
// adapter returns a JSON-marshalable value (the service result payload).
type algoSpec struct {
	needsRoot bool // requires params.root
	weighted  bool // requires a weighted catalog graph
	run       func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error)
}

// Defaults applied when optional params are absent.
const (
	defaultPageRankIters = 20
	defaultPageRankEps   = 1e-4
	defaultLPAIters      = 10
)

// algoRegistry maps the service's algorithm names onto the algo package.
// Every adapter threads opts through unchanged, so the scheduler's
// WithGraphHandle/WithRunStats options reach the engine.
var algoRegistry = map[string]algoSpec{
	"bfs": {needsRoot: true, run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.BFS(g, graph.VID(*p.Root), opts...)
	}},
	"cc": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.CC(g, opts...)
	}},
	"ccopt": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.CCOpt(g, opts...)
	}},
	"pagerank": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		iters, eps := defaultPageRankIters, defaultPageRankEps
		if p.MaxIters != nil {
			iters = *p.MaxIters
		}
		if p.Eps != nil {
			eps = *p.Eps
		}
		return algo.PageRank(g, iters, eps, opts...)
	}},
	"sssp": {needsRoot: true, weighted: true, run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		dist, err := algo.SSSP(g, graph.VID(*p.Root), opts...)
		if err != nil {
			return nil, err
		}
		return ssspJSON(dist), nil
	}},
	"kcore": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.KC(g, opts...)
	}},
	"gc": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.GC(g, opts...)
	}},
	"mis": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.MIS(g, opts...)
	}},
	"lpa": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		iters := defaultLPAIters
		if p.MaxIters != nil {
			iters = *p.MaxIters
		}
		return algo.LPA(g, iters, opts...)
	}},
	"tc": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.TC(g, opts...)
	}},
	"scc": {run: func(g *graph.Graph, p JobParams, opts []flash.Option) (any, error) {
		return algo.SCC(g, opts...)
	}},
}

// Algos returns the names the registry serves, for diagnostics.
func Algos() []string {
	names := make([]string, 0, len(algoRegistry))
	for name := range algoRegistry {
		names = append(names, name)
	}
	return names
}

// ssspJSON maps SSSP's +Inf unreachable sentinel to -1: JSON has no Inf, and
// a negative distance is unambiguous since edge weights are non-negative.
func ssspJSON(dist []float32) []float32 {
	out := make([]float32, len(dist))
	for i, d := range dist {
		if math.IsInf(float64(d), 1) {
			out[i] = -1
		} else {
			out[i] = d
		}
	}
	return out
}

// JobState is a job's position in its lifecycle.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobResult is the payload of a finished job: the algorithm's output plus
// the run accounting that makes the shared/private memory split observable
// per job (StateBytes is this job's private mutable state only — the graph
// and partition it borrowed are accounted on the catalog side).
type JobResult struct {
	Values     any    `json:"values"`
	Supersteps int    `json:"supersteps"`
	StateBytes uint64 `json:"state_bytes"`
	Workers    int    `json:"workers"`
	Resizes    uint64 `json:"resizes"`
	ElapsedNs  int64  `json:"elapsed_ns"`
}

// Job is one admitted request moving through the scheduler. The graph handle
// is resolved at admission, so an eviction after admission cannot fail the
// job. Done closes when the job reaches a terminal state.
type Job struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant,omitempty"`
	Req      JobRequest `json:"request"`
	Enqueued time.Time  `json:"enqueued"`

	handle *flash.GraphHandle

	mu     sync.Mutex
	state  JobState
	result *JobResult
	err    error
	done   chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job finishes or fails.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's result and error once terminal (nil, nil while
// queued or running).
func (j *Job) Result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// setRunning flips the job to running (scheduler only).
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// finish records the terminal state and wakes waiters (scheduler only).
func (j *Job) finish(res *JobResult, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = JobFailed
		j.err = err
	} else {
		j.state = JobDone
		j.result = res
	}
	j.mu.Unlock()
	close(j.done)
}

// execute runs the job's algorithm over its resolved handle: borrow the
// shared immutable state, collect per-run stats, honor a scripted mid-run
// resize. defaultWorkers/defaultThreads come from the server config.
func (j *Job) execute(defaultWorkers, defaultThreads int) (*JobResult, error) {
	spec := algoRegistry[j.Req.Algo] // validated at parse time
	g := j.handle.Graph()
	p := j.Req.Params

	workers, threads := defaultWorkers, defaultThreads
	if p.Workers != nil {
		workers = *p.Workers
	}
	if p.Threads != nil {
		threads = *p.Threads
	}

	var stats flash.RunStats
	opts := []flash.Option{
		flash.WithGraphHandle(j.handle),
		flash.WithWorkers(workers),
		flash.WithThreads(threads),
		flash.WithRunStats(func(s flash.RunStats) { stats = s }),
	}
	if p.TCP != nil && *p.TCP {
		opts = append(opts, flash.WithTCP())
	}
	if p.ResizeAt != nil {
		opts = append(opts, flash.WithResizePolicy(
			flash.SchedulePolicy(map[int]int{*p.ResizeAt: *p.ResizeTo})))
	}

	start := time.Now()
	values, err := spec.run(g, p, opts)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Values:     values,
		Supersteps: stats.Result.Supersteps,
		StateBytes: stats.StateBytes,
		Workers:    stats.Workers,
		Resizes:    stats.Result.Resizes,
		ElapsedNs:  time.Since(start).Nanoseconds(),
	}, nil
}

// validateAgainstGraph applies the checks that need the resolved graph:
// root in range, weighted requirement.
func validateAgainstGraph(req *JobRequest, g *graph.Graph) error {
	spec := algoRegistry[req.Algo]
	if spec.needsRoot && req.Params.Root != nil && *req.Params.Root >= uint64(g.NumVertices()) {
		return &RequestError{Field: "root", Reason: fmt.Sprintf("%d out of range for graph with %d vertices", *req.Params.Root, g.NumVertices())}
	}
	if spec.weighted && !g.Weighted() {
		return &RequestError{Field: "algo", Reason: fmt.Sprintf("%s requires a weighted graph", req.Algo)}
	}
	return nil
}
