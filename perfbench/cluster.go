package main

// cluster-jobs: one client runs multi-process jobs through
// cluster.Coordinator, each spawning two flashd worker processes with
// durable checkpoints in a fresh store directory.

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flash"
	"flash/graph"
	"flash/internal/cluster"
	"flash/internal/comm"
	"flash/internal/serve"
)

func init() {
	register(&workload{
		name:    "cluster-jobs",
		clients: 1, setups: 9, warm: 6, setup: setupCluster,
	})
}

type clusterJobs struct {
	bin   string
	spec  serve.GraphSpec
	g     *graph.Graph // the coordinator-side copy the references run on
	store string
	seq   atomic.Int64
	list  []job
}

// setupCluster builds the weighted OR spec's graph in-process (the copy the
// references and the in-process comparison run on) and creates the root of
// the per-job store directories.
func setupCluster(e *env) (instance, error) {
	if _, err := os.Stat(e.flashd); err != nil {
		return nil, fmt.Errorf("flashd binary: %w", err)
	}
	cj := &clusterJobs{
		bin:   e.flashd,
		spec:  serve.GraphSpec{Name: "or", Gen: "rmat", N: 4096, M: 4096 * 12, Seed: int64(100 + e.seed), Weighted: true},
		store: filepath.Join(e.dir, "stores"),
	}
	if err := os.MkdirAll(cj.store, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	err := e.timed("graph.build_ms", func() error {
		var err error
		cj.g, err = serve.BuildGraph(cj.spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.rec.sample("cluster.graph_build_ms", ms(time.Since(t0)))
	pool := rootPool(e.seed, "cluster-jobs", cj.g, 16)
	pattern := []job{{kind: "bfs"}, {kind: "cc"}, {kind: "bfs"}, {kind: "sssp"}, {kind: "pagerank"}, {kind: "bfs"}}
	cj.list = buildList(rng(e.seed, "cluster-jobs/jobs"), pattern, map[string][]uint32{"": pool}, 600)
	return cj, nil
}

func (cj *clusterJobs) jobs() []job { return cj.list }
func (cj *clusterJobs) ready()      {}

func (cj *clusterJobs) reference(j job) (uint64, error) {
	out, err := serve.RunAlgo(j.kind, cj.g, params(j), engineOpts(1)...)
	if err != nil {
		return 0, err
	}
	return digestBytes(out), nil
}

// lockedBuffer collects the workers' stderr, written by several processes'
// copy goroutines at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (cj *clusterJobs) run(c jobCtx, j job) (func() uint64, error) {
	dir := filepath.Join(cj.store, fmt.Sprintf("job-%d", cj.seq.Add(1)))
	var stderr lockedBuffer
	t0 := time.Now()
	var payload []byte
	var restarts int
	err := c.call("cluster.run", func() error {
		coord, err := cluster.New(cluster.Config{
			BinPath: cj.bin, Workers: 2, Graph: cj.spec, Algo: j.kind, Params: params(j),
			StoreDir: dir, CheckpointEvery: 4, Stderr: &stderr,
		})
		if err != nil {
			return err
		}
		payload, err = coord.Run()
		restarts = coord.Restarts()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%w; worker stderr: %s", err, stderr.String())
	}
	if restarts > 0 {
		return nil, fmt.Errorf("%d fleet restarts; worker stderr: %s", restarts, stderr.String())
	}
	if c.rec != nil {
		c.rec.sample("cluster.run_ms_p50", ms(time.Since(t0)))
		c.rec.sum("cluster.store_kb_per_job", float64(dirBytes(dir))/1e3)
		c.rec.sum("cluster.restarts", float64(restarts))
	}
	return func() uint64 { return digestBytes(payload) }, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// probe runs the first cycle of the job list in-process over loopback TCP
// (the same work without spawn, per-process build and handshake), derives
// the coordinator's overhead from it and times the TCP round floor.
func (cj *clusterJobs) probe(e *env) error {
	for _, j := range cj.list[:12] {
		t0 := time.Now()
		done := e.span("cluster.inproc")
		_, err := serve.RunAlgo(j.kind, cj.g, params(j), append(engineOpts(2), flash.WithTCP())...)
		done()
		if err != nil {
			return err
		}
		e.rec.sample("cluster.inproc_ms_p50", ms(time.Since(t0)))
	}
	e.rec.mu.Lock()
	over := median(e.rec.samples["cluster.run_ms_p50"]) - median(e.rec.samples["cluster.graph_build_ms"]) - median(e.rec.samples["cluster.inproc_ms_p50"])
	e.rec.mu.Unlock()
	e.rec.set("cluster.overhead_ms_p50", over)
	return probeRounds(e, "comm.tcp_round_us", func() (comm.Transport, error) { return comm.NewTCP(2) })
}

func (cj *clusterJobs) close() { os.RemoveAll(cj.store) }
