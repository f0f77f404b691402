package flash_test

import (
	"path/filepath"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

// openXLBlock writes the bench XL graph to a FLASHBLK file in a test temp dir
// and reopens it out-of-core.
func openXLBlock(t *testing.T, g *graph.Graph, blockSize int) *graph.BlockGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.Name()+".blk")
	if err := graph.WriteBlockFile(g, path, blockSize); err != nil {
		t.Fatalf("WriteBlockFile: %v", err)
	}
	bg, err := graph.OpenBlockFile(path)
	if err != nil {
		t.Fatalf("OpenBlockFile: %v", err)
	}
	t.Cleanup(func() { bg.Close() })
	return bg
}

// TestBlockBackendMatchesCSR runs BFS, CC, and PageRank over the XL bench
// graph through the out-of-core block backend and requires byte-identical
// results against the in-memory CSR, across both transports and worker
// counts. The cache budget is far below the edge bytes, so the runs exercise
// eviction, not just decoding.
func TestBlockBackendMatchesCSR(t *testing.T) {
	g := graph.GenRMAT(16384, 16384*12, 101)
	bg := openXLBlock(t, g, 32<<10)
	sk := bg.Skeleton()

	wantBFS, err := algo.BFS(g, 0)
	if err != nil {
		t.Fatalf("CSR BFS: %v", err)
	}
	wantCC, err := algo.CC(g)
	if err != nil {
		t.Fatalf("CSR CC: %v", err)
	}
	wantPR, err := algo.PageRank(g, 10, 0)
	if err != nil {
		t.Fatalf("CSR PageRank: %v", err)
	}

	budget := int64(bg.EdgeBytes()) / 5 // 20% of decoded edge bytes
	for _, tc := range []struct {
		name string
		opts []flash.Option
	}{
		{"mem-w1", []flash.Option{flash.WithWorkers(1)}},
		{"mem-w4", []flash.Option{flash.WithWorkers(4)}},
		{"tcp-w1", []flash.Option{flash.WithWorkers(1), flash.WithTCP()}},
		{"tcp-w4", []flash.Option{flash.WithWorkers(4), flash.WithTCP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats []flash.RunStats
			opts := append([]flash.Option{
				flash.WithBlockBackend(bg),
				flash.WithBlockCacheBytes(budget),
				flash.WithRunStats(func(s flash.RunStats) { stats = append(stats, s) }),
			}, tc.opts...)

			gotBFS, err := algo.BFS(sk, 0, opts...)
			if err != nil {
				t.Fatalf("block BFS: %v", err)
			}
			gotCC, err := algo.CC(sk, opts...)
			if err != nil {
				t.Fatalf("block CC: %v", err)
			}
			gotPR, err := algo.PageRank(sk, 10, 0, opts...)
			if err != nil {
				t.Fatalf("block PageRank: %v", err)
			}

			for i := range wantBFS {
				if gotBFS[i] != wantBFS[i] {
					t.Fatalf("BFS[%d] = %d, want %d", i, gotBFS[i], wantBFS[i])
				}
			}
			for i := range wantCC {
				if gotCC[i] != wantCC[i] {
					t.Fatalf("CC[%d] = %d, want %d", i, gotCC[i], wantCC[i])
				}
			}
			for i := range wantPR {
				if gotPR[i] != wantPR[i] {
					t.Fatalf("PageRank[%d] = %v, want %v", i, gotPR[i], wantPR[i])
				}
			}

			if len(stats) != 3 {
				t.Fatalf("got %d run summaries, want 3", len(stats))
			}
			for i, s := range stats {
				r := s.Result
				if r.BlockMisses == 0 {
					t.Fatalf("run %d: no block reads recorded", i)
				}
				if r.BlockStepsDense+r.BlockStepsSparse == 0 {
					t.Fatalf("run %d: no block supersteps recorded", i)
				}
			}
		})
	}
}

// TestBlockBackendTinyCache forces heavy eviction (budget of a few blocks)
// and still requires exact results — correctness must not depend on
// residency.
func TestBlockBackendTinyCache(t *testing.T) {
	g := graph.GenRMAT(2048, 2048*12, 77)
	bg := openXLBlock(t, g, 4<<10)
	sk := bg.Skeleton()

	want, err := algo.CC(g)
	if err != nil {
		t.Fatalf("CSR CC: %v", err)
	}
	var st flash.RunStats
	got, err := algo.CC(sk,
		flash.WithBlockBackend(bg),
		flash.WithBlockCacheBytes(64<<10), // a handful of blocks
		flash.WithWorkers(2),
		flash.WithRunStats(func(s flash.RunStats) { st = s }))
	if err != nil {
		t.Fatalf("block CC: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CC[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st.Result.BlockEvictions == 0 {
		t.Fatalf("tiny cache recorded no evictions: %+v", st.Result)
	}
}

// TestBlockHandleAdoption checks that a GraphHandle over a block graph makes
// every engine run out-of-core with no per-job options.
func TestBlockHandleAdoption(t *testing.T) {
	g := graph.GenRMAT(1024, 1024*8, 42)
	bg := openXLBlock(t, g, 8<<10)
	h := flash.NewBlockGraphHandle(bg)
	if h.Block() != bg || h.Graph() != bg.Skeleton() {
		t.Fatalf("handle accessors wrong")
	}

	want, err := algo.BFS(g, 3)
	if err != nil {
		t.Fatalf("CSR BFS: %v", err)
	}
	var st flash.RunStats
	got, err := algo.BFS(h.Graph(), 3,
		flash.WithGraphHandle(h),
		flash.WithRunStats(func(s flash.RunStats) { st = s }))
	if err != nil {
		t.Fatalf("handle BFS: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFS[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st.Result.BlockMisses == 0 {
		t.Fatalf("handle run did not go through the block backend")
	}
}

// TestBlockBackendWeightedDirectedThreads extends the block-vs-CSR
// equivalence to the paths the matrix above leaves out: weights trailing
// each row's gaps (SSSP), a directed graph served from separate in-blocks,
// and two threads per worker iterating the same resident blocks through one
// cache (CI runs this under -race). Each block run must match the CSR run
// with the same options exactly.
func TestBlockBackendWeightedDirectedThreads(t *testing.T) {
	undirected := graph.WithRandomWeights(graph.GenRMAT(4096, 4096*10, 202), 7)
	directed := graph.WithRandomWeights(graph.GenRandomDirected(4096, 4096*10, 203), 8)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts []flash.Option
	}{
		{"undirected-w2t1", undirected, []flash.Option{flash.WithWorkers(2)}},
		{"undirected-w2t2", undirected, []flash.Option{flash.WithWorkers(2), flash.WithThreads(2)}},
		{"directed-w2t1", directed, []flash.Option{flash.WithWorkers(2)}},
		{"directed-w2t2", directed, []flash.Option{flash.WithWorkers(2), flash.WithThreads(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bg := openXLBlock(t, tc.g, 8<<10)
			if tc.g.Directed() && bg.NumBlocks(graph.BlockIn) == 0 {
				t.Fatalf("directed block file has no in-blocks")
			}
			var stats []flash.RunStats
			blockOpts := append([]flash.Option{
				flash.WithBlockBackend(bg),
				flash.WithBlockCacheBytes(int64(bg.EdgeBytes()) / 5),
				flash.WithRunStats(func(s flash.RunStats) { stats = append(stats, s) }),
			}, tc.opts...)
			sk := bg.Skeleton()
			for _, root := range []graph.VID{0, 777} {
				wantBFS, err := algo.BFS(tc.g, root, tc.opts...)
				if err != nil {
					t.Fatalf("CSR BFS: %v", err)
				}
				gotBFS, err := algo.BFS(sk, root, blockOpts...)
				if err != nil {
					t.Fatalf("block BFS: %v", err)
				}
				for i := range wantBFS {
					if gotBFS[i] != wantBFS[i] {
						t.Fatalf("BFS(%d)[%d] = %d, want %d", root, i, gotBFS[i], wantBFS[i])
					}
				}
				wantSSSP, err := algo.SSSP(tc.g, root, tc.opts...)
				if err != nil {
					t.Fatalf("CSR SSSP: %v", err)
				}
				gotSSSP, err := algo.SSSP(sk, root, blockOpts...)
				if err != nil {
					t.Fatalf("block SSSP: %v", err)
				}
				for i := range wantSSSP {
					if gotSSSP[i] != wantSSSP[i] {
						t.Fatalf("SSSP(%d)[%d] = %v, want %v", root, i, gotSSSP[i], wantSSSP[i])
					}
				}
			}
			wantPR, err := algo.PageRank(tc.g, 10, 0, tc.opts...)
			if err != nil {
				t.Fatalf("CSR PageRank: %v", err)
			}
			gotPR, err := algo.PageRank(sk, 10, 0, blockOpts...)
			if err != nil {
				t.Fatalf("block PageRank: %v", err)
			}
			for i := range wantPR {
				if gotPR[i] != wantPR[i] {
					t.Fatalf("PageRank[%d] = %v, want %v", i, gotPR[i], wantPR[i])
				}
			}
			for i, s := range stats {
				if s.Result.BlockMisses == 0 || s.Result.BlockEvictions == 0 {
					t.Fatalf("run %d: want block reads with eviction, got %+v", i, s.Result)
				}
			}
		})
	}
}
