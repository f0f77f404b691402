package main

// flashd-mixed: two clients on two keep-alive connections drive
// serve.Server.Handler() over a loopback listener.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"flash"
	"flash/internal/comm"
	"flash/internal/serve"
)

func init() {
	register(&workload{
		name:    "flashd-mixed",
		clients: 2, setups: 9, warm: 48, setup: setupFlashd,
	})
}

// flashdSlots is the server's MaxConcurrent. With one slot, one two-worker
// job runs at a time on the two cores while the other client's job waits in
// the scheduler's queue; two slots would run four workers on two cores, and
// their timings would follow the host's scheduling more than the program.
const flashdSlots = 1

// flashdPattern is a 24-job cycle over both catalog graphs: 9 fast
// (BFS/CC/SSSP on OR, BFS on road), 5 lpa/road, 5 medium (kcore/road,
// pagerank/or, sssp/road) and 5 cc/road. Every fourth job runs on TCP, and
// one BFS and one CC resize (both are exact at any worker count).
var flashdPattern = []job{
	{kind: "bfs", graph: "or"}, {kind: "lpa", graph: "road"}, {kind: "cc", graph: "road", tcp: true}, {kind: "sssp", graph: "or"},
	{kind: "kcore", graph: "road"}, {kind: "bfs", graph: "road"}, {kind: "lpa", graph: "road", tcp: true}, {kind: "cc", graph: "road"},
	{kind: "cc", graph: "or", resizeTo: 1}, {kind: "pagerank", graph: "or", tcp: true}, {kind: "lpa", graph: "road"}, {kind: "bfs", graph: "or"},
	{kind: "cc", graph: "road"}, {kind: "sssp", graph: "road", tcp: true}, {kind: "bfs", graph: "road", resizeTo: 2}, {kind: "lpa", graph: "road"},
	{kind: "sssp", graph: "or", tcp: true}, {kind: "kcore", graph: "road"}, {kind: "cc", graph: "road"}, {kind: "bfs", graph: "or"},
	{kind: "lpa", graph: "road"}, {kind: "cc", graph: "or", tcp: true}, {kind: "sssp", graph: "road"}, {kind: "cc", graph: "road"},
}

type flashd struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	specs   []serve.GraphSpec
	handles map[string]*flash.GraphHandle
	list    []job
	served  chan struct{} // closed when the HTTP server has stopped

	busyOnce sync.Once
	busy0    serve.MetricsSnapshot
}

// setupFlashd builds the server with flashdSlots execution slots and
// two-worker engines, loads the weighted OR and road analogs into its catalog,
// prewarms their one- and two-worker partitions and starts the listener.
func setupFlashd(e *env) (instance, error) {
	srv, err := serve.NewServer(serve.ServerConfig{Scheduler: serve.SchedulerConfig{MaxConcurrent: flashdSlots, Workers: 2, Threads: 1}})
	if err != nil {
		return nil, err
	}
	f := &flashd{srv: srv, handles: map[string]*flash.GraphHandle{}, specs: []serve.GraphSpec{
		{Name: "or", Gen: "rmat", N: 4096, M: 4096 * 12, Seed: int64(100 + e.seed), Weighted: true},
		{Name: "road", Gen: "grid", N: 160 * 40, Rows: 160, Cols: 40, Seed: int64(302 + e.seed), Weighted: true},
	}}
	for _, spec := range f.specs {
		var h *flash.GraphHandle
		if err := e.timed("serve.catalog_load_ms", func() error {
			var err error
			h, err = srv.Catalog().Load(spec)
			return err
		}); err != nil {
			srv.Close()
			return nil, err
		}
		e.timed("partition.build_ms", func() error { h.Prewarm(2); h.Prewarm(1); return nil })
		f.handles[spec.Name] = h
	}
	done := e.span("serve.listen")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	done()
	if err != nil {
		srv.Close()
		return nil, err
	}
	f.hs = &http.Server{Handler: srv.Handler()}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	f.base = "http://" + ln.Addr().String()
	for c := 0; c < 2; c++ {
		f.clients = append(f.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}

	pools := map[string][]uint32{}
	for name, h := range f.handles {
		pools[name] = rootPool(e.seed, "flashd-mixed/"+name, h.Graph(), 32)
	}
	f.list = buildList(rng(e.seed, "flashd-mixed/jobs"), flashdPattern, pools, 800)
	return f, nil
}

func (f *flashd) jobs() []job { return f.list }
func (f *flashd) ready()      {}

// params is the job's request parameters; a resizing job starts at the
// other worker count and switches after superstep 2.
func params(j job) serve.JobParams {
	var p serve.JobParams
	if j.kind == "bfs" || j.kind == "sssp" {
		root := uint64(j.root)
		p.Root = &root
	}
	if j.kind == "pagerank" {
		iters, eps := 10, 0.0
		p.MaxIters, p.Eps = &iters, &eps
	}
	if j.tcp {
		t := true
		p.TCP = &t
	}
	if j.resizeTo > 0 {
		from, at, to := 3-j.resizeTo, 2, j.resizeTo
		p.Workers, p.ResizeAt, p.ResizeTo = &from, &at, &to
	}
	return p
}

func (f *flashd) reference(j job) (uint64, error) {
	h := f.handles[j.graph]
	p := params(j)
	p.TCP, p.Workers, p.ResizeAt, p.ResizeTo = nil, nil, nil, nil
	out, err := serve.RunAlgo(j.kind, h.Graph(), p, engineOpts(1)...)
	if err != nil {
		return 0, err
	}
	return digestBytes(out), nil
}

// jobReply is the part of GET /v1/jobs/{id} the client reads.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Result *struct {
		Values     json.RawMessage `json:"values"`
		Supersteps int             `json:"supersteps"`
		StateBytes uint64          `json:"state_bytes"`
		Resizes    uint64          `json:"resizes"`
		ElapsedNs  int64           `json:"elapsed_ns"`
	} `json:"result"`
	Error json.RawMessage `json:"error"`
}

// do sends one request on client c's connection and returns the status and
// the whole body.
func (f *flashd) do(c int, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.clients[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (f *flashd) run(c jobCtx, j job) (func() uint64, error) {
	if c.rec != nil {
		f.busyOnce.Do(func() { f.busy0 = f.srv.Metrics() })
	}
	body, err := json.Marshal(serve.JobRequest{Graph: j.graph, Algo: j.kind, Params: params(j)})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var code int
	var data []byte
	err = c.call("serve.submit", func() error {
		var err error
		code, data, err = f.do(c.client, "POST", "/v1/jobs", body)
		return err
	})
	c.rec.sample("serve.submit_ms_p50", ms(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		c.rec.sum("serve.rejected", 1)
		return nil, fmt.Errorf("submit: HTTP %d: %s", code, data)
	}
	var rep jobReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	err = c.call("serve.wait", func() error {
		var err error
		code, data, err = f.do(c.client, "GET", "/v1/jobs/"+rep.ID+"?wait=60s", nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		c.rec.sum("serve.rejected", 1)
		return nil, fmt.Errorf("wait: HTTP %d: %s", code, data)
	}
	rep = jobReply{}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.State != string(serve.JobDone) || rep.Result == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", rep.ID, rep.State, rep.Error)
	}
	if j.resizeTo > 0 && rep.Result.Resizes == 0 {
		return nil, fmt.Errorf("job %s: resize_at/resize_to set but the job did not resize", rep.ID)
	}
	lat := time.Since(t0)
	res := rep.Result
	if c.rec != nil {
		c.rec.sample("serve.overhead_ms_p50", ms(lat)-float64(res.ElapsedNs)/1e6)
		c.rec.sample("serve.result_kb_p50", float64(len(data))/1e3)
		c.rec.sum("core.supersteps_per_job", float64(res.Supersteps))
		c.rec.sum("core.state_kb_per_job", float64(res.StateBytes)/1e3)
	}
	return func() uint64 { return digestBytes(res.Values) }, nil
}

// probe measures what the HTTP surface does not report per job: service
// busy time, engine construction over the catalog's handles, the TCP
// mesh, the scripted resizes (replayed in-process with their run stats) and
// the catalog graphs' build time.
func (f *flashd) probe(e *env) error {
	m := f.srv.Metrics()
	up := float64(m.UptimeNs - f.busy0.UptimeNs)
	e.rec.set("serve.busy_frac", float64(m.BusyNs-f.busy0.BusyNs)/(flashdSlots*up))
	var shared uint64
	for _, h := range f.handles {
		shared += h.SharedBytes()
	}
	e.rec.set("partition.shared_mb", float64(shared)/1e6)
	if err := probeEngineNew(e, f.handles["or"]); err != nil {
		return err
	}
	if err := probeRounds(e, "comm.tcp_round_us", func() (comm.Transport, error) { return comm.NewTCP(2) }); err != nil {
		return err
	}
	if err := probeTCPSetup(e); err != nil {
		return err
	}
	var resizeMs, migratedKB, n float64
	for _, j := range f.list[:len(flashdPattern)] {
		if j.resizeTo == 0 {
			continue
		}
		h := f.handles[j.graph]
		p := params(j)
		var st flash.RunStats
		done := e.span("core.resize_replay")
		_, err := serve.RunAlgo(j.kind, h.Graph(), serve.JobParams{Root: p.Root},
			flash.WithGraphHandle(h), flash.WithWorkers(*p.Workers), flash.WithThreads(1),
			flash.WithResizePolicy(flash.SchedulePolicy(map[int]int{*p.ResizeAt: *p.ResizeTo})),
			flash.WithRunStats(func(s flash.RunStats) { st = s }))
		done()
		if err != nil {
			return err
		}
		resizeMs += ms(st.Result.ResizeTime)
		migratedKB += float64(st.Result.MigratedBytes) / 1e3
		n++
	}
	if n > 0 {
		e.rec.set("core.resize_ms_per_job", resizeMs/n)
		e.rec.set("core.migrated_kb_per_job", migratedKB/n)
	}
	for _, spec := range f.specs {
		if err := e.timed("graph.build_ms", func() error { _, err := serve.BuildGraph(spec); return err }); err != nil {
			return err
		}
	}
	return nil
}

// probeTCPSetup times building and closing a two-worker loopback TCP mesh,
// the set-up a tcp job pays.
func probeTCPSetup(e *env) error {
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		done := e.span("comm.tcp_setup")
		t, err := comm.NewTCP(2)
		if err != nil {
			return err
		}
		err = t.Close()
		done()
		if err != nil {
			return err
		}
		e.rec.sample("comm.tcp_setup_ms", ms(time.Since(t0)))
	}
	return nil
}

func (f *flashd) close() {
	f.hs.Close()
	<-f.served
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	f.srv.Close()
}
