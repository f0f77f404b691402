package main

// The three in-process workloads: the library path (social-lib), a
// prewarmed handle over a high-diameter graph (road-sparse) and a prewarmed
// out-of-core block handle (ooc-xxl).

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/internal/comm"
	"flash/metrics"
)

func init() {
	register(&workload{
		name:    "social-lib",
		clients: 1, setups: 9, warm: 12, setup: setupSocial,
	})
	register(&workload{
		name:    "road-sparse",
		clients: 1, setups: 9, warm: 4 * roadGraphs, setup: setupRoad,
	})
	register(&workload{
		name:    "ooc-xxl",
		clients: 1, setups: 3, warm: 4, setup: setupOOC,
	})
}

// engineOpts are the engine settings of every timed job: two workers of one
// thread each.
func engineOpts(workers int) []flash.Option {
	return []flash.Option{flash.WithWorkers(workers), flash.WithThreads(1)}
}

// runKind runs one algorithm through the algo package and returns the
// digest of its result.
func runKind(kind string, g *graph.Graph, root uint32, opts []flash.Option) (func() uint64, error) {
	switch kind {
	case "bfs":
		d, err := algo.BFS(g, graph.VID(root), opts...)
		return func() uint64 { return digestOf(d) }, err
	case "sssp":
		d, err := algo.SSSP(g, graph.VID(root), opts...)
		return func() uint64 { return digestOf(d) }, err
	case "cc":
		d, err := algo.CC(g, opts...)
		return func() uint64 { return digestOf(d) }, err
	case "pagerank":
		d, err := algo.PageRank(g, 10, 0, opts...)
		return func() uint64 { return digestOf(d) }, err
	}
	return nil, fmt.Errorf("unknown algorithm %q", kind)
}

// rootPool draws n distinct roots with at least one edge, so every rooted
// job explores the graph instead of stopping at an isolated vertex.
func rootPool(seed uint64, salt string, g *graph.Graph, n int) []uint32 {
	r := rng(seed, salt+"/roots")
	seen := map[uint32]bool{}
	pool := make([]uint32, 0, n)
	for len(pool) < n {
		v := uint32(r.IntN(g.NumVertices()))
		if !seen[v] && g.OutDegree(graph.VID(v)) > 0 {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	return pool
}

// input is one graph of an in-process workload: g/gw are the graphs of
// unweighted and weighted jobs, h/hw their prewarmed handles (nil on the
// library path), csr/csrw the in-memory graphs the references run on.
type input struct {
	g, gw     *graph.Graph
	h, hw     *flash.GraphHandle
	csr, csrw *graph.Graph
}

// inproc is an in-process workload instance; its jobs name their input by
// job.graph.
type inproc struct {
	inputs  map[string]*input
	list    []job
	extra   []flash.Option
	probeFn func(e *env) error
	closeFn func()
}

func (in *inproc) jobs() []job { return in.list }

func (in *inproc) pick(j job) (*graph.Graph, *flash.GraphHandle) {
	x := in.inputs[j.graph]
	if j.kind == "sssp" {
		return x.gw, x.hw
	}
	return x.g, x.h
}

func (in *inproc) reference(j job) (uint64, error) {
	x := in.inputs[j.graph]
	g := x.csr
	if j.kind == "sssp" {
		g = x.csrw
	}
	out, err := runKind(j.kind, g, j.root, engineOpts(1))
	if err != nil {
		return 0, err
	}
	return out(), nil
}

// ready drops the in-memory graphs the references ran on when the jobs run
// elsewhere (the block handle), so the timed phase and live_heap_mb see
// only what the workload keeps resident.
func (in *inproc) ready() {
	for _, x := range in.inputs {
		if x.h != nil && x.h.Block() != nil {
			x.csr, x.csrw = nil, nil
		}
	}
}

func (in *inproc) run(c jobCtx, j job) (func() uint64, error) {
	g, h := in.pick(j)
	var st flash.RunStats
	opts := append(engineOpts(2), flash.WithRunStats(func(s flash.RunStats) { st = s }))
	opts = append(opts, in.extra...)
	var col *metrics.Collector
	if c.rec != nil {
		col = metrics.New()
		opts = append(opts, flash.WithCollector(col))
	}
	switch {
	case h != nil:
		opts = append(opts, flash.WithGraphHandle(h))
	case c.tr != nil:
		// Traced library path: the same partition.New work a fresh engine
		// does, reached through a handle so it can be timed from outside.
		t0 := time.Now()
		c.call("partition.build", func() error {
			h = flash.NewGraphHandle(g)
			h.Prewarm(2)
			return nil
		})
		c.rec.sample("partition.build_ms", ms(time.Since(t0)))
		opts = append(opts, flash.WithGraphHandle(h))
	}
	var out func() uint64
	err := c.call("algo."+j.kind, func() error {
		var err error
		out, err = runKind(j.kind, g, j.root, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.Result.Restarts > 0 {
		return nil, fmt.Errorf("%d worker restarts", st.Result.Restarts)
	}
	recordRun(c.rec, col, st)
	return out, nil
}

// recordRun adds one job's engine counters to the per-layer sums.
func recordRun(rec *recorder, col *metrics.Collector, st flash.RunStats) {
	if rec == nil {
		return
	}
	r := st.Result
	rec.sum("core.supersteps_per_job", float64(r.Supersteps))
	rec.sum("core.state_kb_per_job", float64(st.StateBytes)/1e3)
	rec.sum("core.compute_ms_per_job", ms(col.Duration(metrics.Compute)))
	rec.sum("comm.wait_ms_per_job", ms(col.Duration(metrics.Communication)))
	rec.sum("comm.serialize_ms_per_job", ms(col.Duration(metrics.Serialization)))
	rec.sum("comm.messages_per_job", float64(col.Messages))
	rec.sum("comm.mb_per_job", float64(col.Bytes)/1e6)
	rec.sum("comm.retries_per_job", float64(r.Retries+r.Reconnects))
	rec.sum("graph.block_lookups_per_job", float64(r.BlockHits+r.BlockMisses))
	rec.sum("graph.block_misses_per_job", float64(r.BlockMisses))
	rec.sum("graph.block_evictions_per_job", float64(r.BlockEvictions))
	rec.sum("graph.block_mb_dense_per_job", float64(r.BlockBytesDense)/1e6)
	rec.sum("graph.block_mb_sparse_per_job", float64(r.BlockBytesSparse)/1e6)
}

func (in *inproc) probe(e *env) error {
	if in.probeFn == nil {
		return nil
	}
	return in.probeFn(e)
}

func (in *inproc) close() {
	if in.closeFn != nil {
		in.closeFn()
	}
}

// genWeighted builds a graph and its weighted copy under one graph.build
// span.
func genWeighted(e *env, gen func() *graph.Graph, seed int64) (g, gw *graph.Graph) {
	e.timed("graph.build_ms", func() error {
		g = gen()
		gw = graph.WithRandomWeights(g, seed)
		return nil
	})
	return g, gw
}

// prewarm wraps g in a handle and builds its two-worker partition.
func prewarm(e *env, g *graph.Graph) *flash.GraphHandle {
	h := flash.NewGraphHandle(g)
	e.timed("partition.build_ms", func() error { h.Prewarm(2); return nil })
	return h
}

// setupSocial: the OR analog at scale 4 and its weighted copy; jobs are
// plain algo calls that build their own partition (the library path).
func setupSocial(e *env) (instance, error) {
	seed := int64(100 + e.seed)
	g, gw := genWeighted(e, func() *graph.Graph { return graph.GenRMAT(16384, 196608, seed) }, seed)
	pool := rootPool(e.seed, "social-lib", g, 16)
	// Per 12 jobs: 3 bfs, 4 cc, 3 sssp, 2 pagerank, so the median falls
	// inside the cc mode and p90 inside the pagerank mode.
	pattern := []job{
		{kind: "bfs"}, {kind: "cc"}, {kind: "sssp"}, {kind: "cc"}, {kind: "pagerank"}, {kind: "bfs"},
		{kind: "cc"}, {kind: "sssp"}, {kind: "bfs"}, {kind: "cc"}, {kind: "sssp"}, {kind: "pagerank"},
	}
	list := buildList(rng(e.seed, "social-lib/jobs"), pattern, map[string][]uint32{"": pool}, 600)
	return &inproc{inputs: map[string]*input{"": {g: g, gw: gw, csr: g, csrw: gw}}, list: list}, nil
}

// roadGraphs is the number of road analogs road-sparse spreads its jobs
// over. A grid's diameter, and so the cost of every BFS and SSSP on it,
// depends on where its 12 random chords land; one grid per seed made
// jobs_per_s differ by 30% between seeds, and four grids average that out.
const roadGraphs = 4

// setupRoad: roadGraphs US road analogs at scale 4 (grids with chords) and
// their weighted copies, each behind a handle prewarmed for two workers.
func setupRoad(e *env) (instance, error) {
	in := &inproc{inputs: map[string]*input{}}
	pools := map[string][]uint32{}
	var pattern []job
	for k := 0; k < roadGraphs; k++ {
		seed := int64(302+e.seed) + 1000*int64(k)
		g, gw := genWeighted(e, func() *graph.Graph { return graph.GenGrid(640, 40, 12, seed) }, seed)
		name := fmt.Sprintf("road%d", k)
		in.inputs[name] = &input{g: g, gw: gw, csr: g, csrw: gw, h: prewarm(e, g), hw: prewarm(e, gw)}
		pools[name] = rootPool(e.seed, "road-sparse/"+name, g, 16)
		pattern = append(pattern, job{kind: "bfs", graph: name}, job{kind: "sssp", graph: name}, job{kind: "bfs", graph: name}, job{kind: "bfs", graph: name})
	}
	in.list = buildList(rng(e.seed, "road-sparse/jobs"), pattern, pools, 1024)
	in.probeFn = func(e *env) error {
		if err := probeEngineNew(e, in.inputs["road0"].h); err != nil {
			return err
		}
		return probeRounds(e, "comm.mem_round_us", func() (comm.Transport, error) { return comm.NewMem(2), nil })
	}
	return in, nil
}

// setupOOC: the XXL tier written to a FLASHBLK file, opened, wrapped in a
// prewarmed block handle with a cache of 20% of the decoded edge bytes. The
// in-memory CSR serves only the references and is dropped before timing.
func setupOOC(e *env) (instance, error) {
	seed := int64(100 + e.seed)
	var g *graph.Graph
	e.timed("graph.build_ms", func() error { g = graph.GenRMAT(65536, 2359296, seed); return nil })
	path := filepath.Join(e.dir, "xxl.blk")
	var bg *graph.BlockGraph
	err := e.timed("graph.blockfile_ms", func() error {
		if err := graph.WriteBlockFile(g, path, graph.DefaultBlockSize); err != nil {
			return err
		}
		var err error
		bg, err = graph.OpenBlockFile(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	h := flash.NewBlockGraphHandle(bg)
	e.timed("partition.build_ms", func() error { h.Prewarm(2); return nil })
	sk := h.Graph()
	in := &inproc{inputs: map[string]*input{"": {g: sk, gw: sk, h: h, hw: h, csr: g, csrw: g}},
		extra:   []flash.Option{flash.WithBlockCacheBytes(int64(bg.EdgeBytes()) / 5)},
		closeFn: func() { bg.Close(); os.Remove(path) },
	}
	pool := rootPool(e.seed, "ooc-xxl", g, 12)
	in.list = buildList(rng(e.seed, "ooc-xxl/jobs"), []job{{kind: "bfs"}, {kind: "bfs"}, {kind: "cc"}, {kind: "bfs"}}, map[string][]uint32{"": pool}, 300)
	in.probeFn = func(e *env) error {
		if err := probeBlockDecode(e, bg); err != nil {
			return err
		}
		e.rec.set("partition.shared_mb", float64(h.SharedBytes())/1e6)
		return probeEngineNew(e, h)
	}
	return in, nil
}

// probeEngineNew times NewEngine + Close over a prewarmed handle and reads
// the partition's replication factor from one of the engines.
func probeEngineNew(e *env, h *flash.GraphHandle) error {
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		done := e.span("core.engine_new")
		eng, err := flash.NewEngine[int32](h.Graph(), append(engineOpts(2), flash.WithGraphHandle(h))...)
		if err != nil {
			return err
		}
		rf := eng.ReplicationFactor()
		if err := eng.Close(); err != nil {
			return err
		}
		done()
		e.rec.sample("core.engine_new_ms", ms(time.Since(t0)))
		e.rec.set("partition.replication_factor", rf)
	}
	return nil
}

// probeRounds times empty rounds (EndRound then Drain on both workers) of a
// fresh two-worker transport: the floor of one superstep's barrier.
func probeRounds(e *env, name string, mk func() (comm.Transport, error)) error {
	const rounds = 2000
	for rep := 0; rep < 5; rep++ {
		t, err := mk()
		if err != nil {
			return err
		}
		done := e.span(name)
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds && errs[w] == nil; r++ {
					if errs[w] = t.EndRound(w); errs[w] == nil {
						errs[w] = t.Drain(w, func(int, []byte) {})
					}
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(t0)
		done()
		if err := t.Close(); err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		e.rec.sample(name, float64(el.Nanoseconds())/1e3/rounds)
	}
	return nil
}

// probeBlockDecode reads and decodes every block of bg once, timing each.
func probeBlockDecode(e *env, bg *graph.BlockGraph) error {
	dirs := []int{graph.BlockOut}
	if bg.Directed() {
		dirs = append(dirs, graph.BlockIn)
	}
	for _, d := range dirs {
		for i := 0; i < bg.NumBlocks(d); i++ {
			t0 := time.Now()
			done := e.span("graph.block_decode")
			_, err := bg.ReadBlock(d, i)
			done()
			if err != nil {
				return err
			}
			e.rec.sample("graph.block_decode_us", float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return nil
}
