package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

// writeFile writes b to path in place, keeping any open handle on it valid.
func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestBlockHostileVIDRangeFailsBFS runs BFS over a block file whose block is
// hostile but CRC-consistent (a vid past n): the first-load validation must
// turn it into a run error, never a result, with one thread or several.
func TestBlockHostileVIDRangeFailsBFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.blk")
	writeFile(t, path, graph.HostileVIDImage())
	bg, err := graph.OpenBlockFile(path)
	if err != nil {
		t.Fatalf("OpenBlockFile: %v", err)
	}
	defer bg.Close()
	for _, threads := range []int{1, 2} {
		dist, err := algo.BFS(bg.Skeleton(), 0,
			flash.WithBlockBackend(bg), flash.WithWorkers(2), flash.WithThreads(threads))
		if err == nil {
			t.Fatalf("threads=%d: BFS over a hostile block returned a result (%d distances), want an error", threads, len(dist))
		}
	}
}

// TestBlockChangedOnDiskFailsKernel swaps the blocks under an open,
// prewarmed handle: the partition build passed every first-load check, so
// the damage surfaces in the kernels' own reads, where each block's CRC no
// longer matches the table read at open. The run must return an error with
// one thread or several (the graph is large enough for multi-chunk parallel
// regions, so helper threads hit the bad reads too).
func TestBlockChangedOnDiskFailsKernel(t *testing.T) {
	img := graph.EncodeBlockFile(graph.GenRMAT(4096, 4096*8, 5), 4<<10)
	bad := graph.FlipBlockBytes(img)
	path := filepath.Join(t.TempDir(), "swapped.blk")
	for _, threads := range []int{1, 2} {
		writeFile(t, path, img)
		bg, err := graph.OpenBlockFile(path)
		if err != nil {
			t.Fatalf("OpenBlockFile: %v", err)
		}
		h := flash.NewBlockGraphHandle(bg)
		h.Prewarm(2)
		writeFile(t, path, bad)
		_, err = algo.CC(h.Graph(), flash.WithGraphHandle(h), flash.WithWorkers(2), flash.WithThreads(threads))
		bg.Close()
		if err == nil {
			t.Fatalf("threads=%d: CC over blocks changed on disk returned a result, want an error", threads)
		}
	}
}
