package graph

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flash/internal/bitset"
)

// blockTestGraphs builds the directed×weighted matrix of small graphs used by
// the roundtrip tests.
func blockTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	undirW := NewBuilder(64).Weighted(true).Name("undir-w")
	for v := 0; v < 63; v++ {
		undirW.AddEdgeW(VID(v), VID(v+1), float32(v)+0.5)
		undirW.AddEdgeW(VID(v), VID((v*7+3)%64), float32(v)*0.25)
	}
	return map[string]*Graph{
		"undirected":          GenRMAT(200, 1200, 7),
		"directed":            GenRandomDirected(300, 2400, 3),
		"directed-weighted":   WithRandomWeights(GenRandomDirected(150, 900, 5), 11),
		"undirected-weighted": undirW.Build(),
		"empty":               NewBuilder(0).Build(),
		"isolated":            NewBuilder(5).AddEdge(0, 4).Build(),
	}
}

// openBlockBytes encodes g and reopens it from the in-memory image.
func openBlockBytes(t *testing.T, g *Graph, blockSize int) *BlockGraph {
	t.Helper()
	buf := EncodeBlockFile(g, blockSize)
	bg, err := OpenBlockReader(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatalf("OpenBlockReader: %v", err)
	}
	return bg
}

// assertSameTopology checks bg against g vertex by vertex through both the
// sequential accessors and direct block reads.
func assertSameTopology(t *testing.T, g *Graph, bg *BlockGraph) {
	t.Helper()
	if bg.NumVertices() != g.NumVertices() || bg.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: got %d/%d want %d/%d",
			bg.NumVertices(), bg.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if bg.Directed() != g.Directed() || bg.Weighted() != g.Weighted() || bg.Name() != g.Name() {
		t.Fatalf("attrs mismatch: %v/%v/%q vs %v/%v/%q",
			bg.Directed(), bg.Weighted(), bg.Name(), g.Directed(), g.Weighted(), g.Name())
	}
	for v := 0; v < g.NumVertices(); v++ {
		u := VID(v)
		wantOut, wantIn := g.OutNeighbors(u), g.InNeighbors(u)
		if got := bg.OutNeighbors(u); !equalVIDs(got, wantOut) {
			t.Fatalf("out(%d): got %v want %v", v, got, wantOut)
		}
		if got := bg.InNeighbors(u); !equalVIDs(got, wantIn) {
			t.Fatalf("in(%d): got %v want %v", v, got, wantIn)
		}
		blk, err := bg.ReadBlock(BlockOut, bg.OutBlockOf(u))
		if err != nil {
			t.Fatalf("ReadBlock out of %d: %v", v, err)
		}
		adj, ws := blockRow(t, blk, u)
		if !equalVIDs(adj, wantOut) {
			t.Fatalf("block out(%d): got %v want %v", v, adj, wantOut)
		}
		if g.Weighted() {
			wantW := g.OutWeights(u)
			if len(ws) != len(wantW) {
				t.Fatalf("weights(%d): got %d want %d", v, len(ws), len(wantW))
			}
			for i := range ws {
				if ws[i] != wantW[i] {
					t.Fatalf("weight(%d)[%d]: got %v want %v", v, i, ws[i], wantW[i])
				}
			}
		} else {
			for i, w := range ws {
				if w != 0 {
					t.Fatalf("unweighted row %d yielded weight %v at %d", v, w, i)
				}
			}
		}
	}
}

// blockRow collects v's row from a resident block through Each.
func blockRow(t *testing.T, b *Block, v VID) ([]VID, []float32) {
	t.Helper()
	var adj []VID
	var ws []float32
	if err := b.Each(v, func(u VID, w float32) bool {
		adj = append(adj, u)
		ws = append(ws, w)
		return true
	}); err != nil {
		t.Fatalf("Each(%d): %v", v, err)
	}
	return adj, ws
}

func equalVIDs(a, b []VID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBlockRoundtrip(t *testing.T) {
	for name, g := range blockTestGraphs(t) {
		for _, bs := range []int{0, 256, 1} {
			t.Run(name, func(t *testing.T) {
				bg := openBlockBytes(t, g, bs)
				assertSameTopology(t, g, bg)
				if bs == 1 && g.NumVertices() > 100 && bg.NumBlocks(BlockOut) < 10 {
					t.Fatalf("block size 1 produced only %d blocks", bg.NumBlocks(BlockOut))
				}
			})
		}
	}
}

func TestBlockFileWriteOpen(t *testing.T) {
	g := WithRandomWeights(GenRMAT(128, 700, 9), 4)
	path := filepath.Join(t.TempDir(), "g.blk")
	if err := WriteBlockFile(g, path, 512); err != nil {
		t.Fatalf("WriteBlockFile: %v", err)
	}
	if !IsBlockFile(path) {
		t.Fatalf("IsBlockFile = false for a fresh block file")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind")
	}
	bg, err := OpenBlockFile(path)
	if err != nil {
		t.Fatalf("OpenBlockFile: %v", err)
	}
	defer bg.Close()
	assertSameTopology(t, g, bg)

	// Alignment: every block offset is blkAlign-aligned (the decoder enforces
	// this; double-check the writer actually aligned rather than zeroed).
	for d := range bg.blocks {
		for _, mt := range bg.blocks[d] {
			if mt.off%blkAlign != 0 {
				t.Fatalf("unaligned block at payload offset %d", mt.off)
			}
		}
	}
}

func TestBlockFileRejectsCorruption(t *testing.T) {
	g := GenRMAT(100, 600, 13)
	buf := EncodeBlockFile(g, 256)

	open := func(b []byte) (*BlockGraph, error) {
		return OpenBlockReader(bytes.NewReader(b), int64(len(b)))
	}

	if _, err := open(buf[:len(buf)-3]); err == nil {
		t.Fatalf("truncated file accepted")
	}
	if _, err := open(buf[:blkHdrSize-1]); err == nil {
		t.Fatalf("header-only prefix accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := open(bad); err == nil {
		t.Fatalf("bad magic accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[8] ^= 0xff // version
	if _, err := open(bad); err == nil {
		t.Fatalf("bad version accepted")
	}

	// Payload bit flip: header and tables still parse, the damaged block must
	// fail its CRC at read time.
	bg, err := open(buf)
	if err != nil {
		t.Fatalf("pristine open: %v", err)
	}
	bad = append([]byte(nil), buf...)
	bad[int(bg.payloadStart)+2] ^= 0x01
	bg2, err := open(bad)
	if err != nil {
		t.Fatalf("payload-flipped open: %v", err)
	}
	if _, err := bg2.ReadBlock(BlockOut, 0); err == nil {
		t.Fatalf("bit-flipped block passed CRC")
	}
}

func TestSkeletonPanicsOnAdjacency(t *testing.T) {
	bg := openBlockBytes(t, GenRMAT(50, 200, 1), 0)
	sk := bg.Skeleton()
	if sk.NumVertices() != 50 || sk.NumEdges() != bg.NumEdges() {
		t.Fatalf("skeleton shape wrong")
	}
	if !sk.Skeleton() {
		t.Fatalf("Skeleton() = false for a block skeleton")
	}
	if sk.OutDegree(3) != int(bg.outOff[4]-bg.outOff[3]) {
		t.Fatalf("skeleton degree wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("skeleton adjacency access did not panic")
		}
	}()
	sk.OutNeighbors(3)
}

func TestBlockCacheEviction(t *testing.T) {
	g := GenRMAT(512, 4096, 21)
	bg := openBlockBytes(t, g, 512) // many small blocks
	nb := bg.NumBlocks(BlockOut)
	if nb < 8 {
		t.Fatalf("want many blocks, got %d", nb)
	}

	one, err := bg.ReadBlock(BlockOut, 0)
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	// Budget for about three blocks: a full scan must evict.
	c := NewBlockCache(bg, 3*one.Bytes())
	c.BeginDense()
	for i := 0; i < nb; i++ {
		dec, err := c.Get(BlockOut, i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !dec.Contains(dec.First()) {
			t.Fatalf("bad block %d", i)
		}
	}
	st := c.Stats()
	if st.Misses != uint64(nb) || st.Hits != 0 {
		t.Fatalf("cold scan: hits=%d misses=%d want 0/%d", st.Hits, st.Misses, nb)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 3-block budget across %d blocks", nb)
	}
	if st.BytesDense == 0 || st.BytesSparse != 0 {
		t.Fatalf("dense-mode byte accounting wrong: %+v", st)
	}
	if c.Bytes() > c.Budget() {
		t.Fatalf("resident %d exceeds budget %d", c.Bytes(), c.Budget())
	}

	// Unbounded-enough budget: a second scan is all hits.
	c2 := NewBlockCache(bg, int64(bg.EdgeBytes())*4+int64(nb)*128)
	c2.BeginDense()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nb; i++ {
			if _, err := c2.Get(BlockOut, i); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
	}
	st2 := c2.Stats()
	if st2.Hits != uint64(nb) || st2.Misses != uint64(nb) || st2.Evictions != 0 {
		t.Fatalf("warm scan: %+v", st2)
	}
}

func TestBlockCacheSparsePlan(t *testing.T) {
	g := GenRMAT(512, 4096, 22)
	bg := openBlockBytes(t, g, 512)
	nb := bg.NumBlocks(BlockOut)
	c := NewBlockCache(bg, 1<<20)

	plan := bitset.New(nb)
	plan.Set(0)
	c.BeginSparse(plan, nil)
	if _, err := c.Get(BlockOut, 0); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := c.Get(BlockOut, nb-1); err != nil {
		t.Fatalf("Get: %v", err)
	}
	st := c.Stats()
	if st.BytesSparse == 0 || st.BytesDense != 0 {
		t.Fatalf("sparse byte accounting wrong: %+v", st)
	}
	if st.Unplanned != 1 {
		t.Fatalf("unplanned = %d, want 1 (block %d was outside the plan)", st.Unplanned, nb-1)
	}

	d := c.TakeDelta()
	if d.Misses != 2 {
		t.Fatalf("TakeDelta misses = %d, want 2", d.Misses)
	}
	if d2 := c.TakeDelta(); d2.Misses != 0 || d2.Hits != 0 {
		t.Fatalf("second TakeDelta not empty: %+v", d2)
	}
}

func TestBlockCacheOversizeBlockCachedAlone(t *testing.T) {
	// One hub vertex with a huge list: with a tiny target every vertex gets
	// its own block and the hub's block exceeds any small budget. Residency
	// is minimum-one-block, so the oversize block evicts everything else and
	// stays resident alone — a rescan must hit, not re-decode.
	b := NewBuilder(1000).Directed(true)
	for v := 1; v < 1000; v++ {
		b.AddEdge(0, VID(v))
	}
	bg := openBlockBytes(t, b.Build(), 1)
	hub, err := bg.ReadBlock(BlockOut, bg.OutBlockOf(0))
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	c := NewBlockCache(bg, hub.Bytes()/2)
	c.BeginDense()
	if _, err := c.Get(BlockOut, 1); err != nil { // a small resident victim
		t.Fatalf("Get: %v", err)
	}
	if _, err := c.Get(BlockOut, bg.OutBlockOf(0)); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if c.Bytes() != hub.Bytes() {
		t.Fatalf("oversize block not resident alone: %d bytes, want %d", c.Bytes(), hub.Bytes())
	}
	dec, err := c.Get(BlockOut, bg.OutBlockOf(0))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if adj, _ := blockRow(t, dec, 0); len(adj) != 999 {
		t.Fatalf("hub degree %d, want 999", len(adj))
	}
	if st := c.Stats(); st.Hits != 1 || st.Evictions != 1 {
		t.Fatalf("oversize residency stats: %+v (want 1 hit, 1 eviction)", st)
	}
}

func TestBlockGraphFootprint(t *testing.T) {
	g := GenRMAT(256, 2000, 5)
	bg := openBlockBytes(t, g, 0)
	if bg.EdgeBytes() != uint64(g.NumEdges())*4 {
		t.Fatalf("EdgeBytes = %d, want %d (undirected stores one direction)",
			bg.EdgeBytes(), g.NumEdges()*4)
	}
	if bg.IndexBytes() == 0 {
		t.Fatalf("IndexBytes = 0")
	}
	dg := WithRandomWeights(GenRandomDirected(100, 500, 2), 3)
	dbg := openBlockBytes(t, dg, 0)
	if dbg.EdgeBytes() != uint64(dg.NumEdges())*8*2 {
		t.Fatalf("directed weighted EdgeBytes = %d, want %d", dbg.EdgeBytes(), dg.NumEdges()*8*2)
	}
}

// TestBlockHostileVIDRange loads a block that passes its CRC but names a vid
// past n: the first-load walk must reject it with the typed error, every
// time, and the cache must not keep it.
func TestBlockHostileVIDRange(t *testing.T) {
	img := hostileVIDImage()
	bg, err := OpenBlockReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatalf("CRC-consistent hostile image rejected at open: %v", err)
	}
	for pass := 0; pass < 2; pass++ { // a failed first load must not mark the block checked
		_, err := bg.ReadBlock(BlockOut, 0)
		var re *VIDRangeError
		if !errors.As(err, &re) {
			t.Fatalf("pass %d: ReadBlock = %v, want a *VIDRangeError", pass, err)
		}
		if re.Vertex != 0 || re.VID != 128 || re.N != uint64(bg.NumVertices()) {
			t.Fatalf("pass %d: range error %+v, want vertex 0, vid 128, n %d", pass, re, bg.NumVertices())
		}
	}
	c := NewBlockCache(bg, 1<<20)
	if _, err := c.Get(BlockOut, 0); !errors.As(err, new(*VIDRangeError)) {
		t.Fatalf("cache Get = %v, want a *VIDRangeError", err)
	}
	if c.Bytes() != 0 {
		t.Fatalf("a rejected block was cached: %d bytes resident", c.Bytes())
	}
	for i := 1; i < bg.NumBlocks(BlockOut); i++ {
		if _, err := bg.ReadBlock(BlockOut, i); err != nil {
			t.Fatalf("untouched block %d: %v", i, err)
		}
	}
}

// TestBlockRowsZeroAlloc gates the lazy row decoder: walking every row of a
// resident block allocates nothing, weighted or not.
func TestBlockRowsZeroAlloc(t *testing.T) {
	for name, g := range map[string]*Graph{
		"unweighted": GenRMAT(512, 4096, 3),
		"weighted":   WithRandomWeights(GenRMAT(512, 4096, 3), 5),
	} {
		t.Run(name, func(t *testing.T) {
			bg := openBlockBytes(t, g, 0)
			blk, err := bg.ReadBlock(BlockOut, 0)
			if err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
			edges := 0
			yield := func(VID, float32) bool { edges++; return true }
			allocs := testing.AllocsPerRun(20, func() {
				for v := blk.First(); blk.Contains(v); v++ {
					if err := blk.Each(v, yield); err != nil {
						t.Fatalf("Each(%d): %v", v, err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("iterating a resident block allocated %.1f times per pass", allocs)
			}
			if edges == 0 {
				t.Fatalf("no edges iterated")
			}
		})
	}
}

// benchBlockGraph is the block-benchmark graph: an RMAT graph with the
// default 64 KiB block size, opened from memory.
func benchBlockGraph(b *testing.B) *BlockGraph {
	b.Helper()
	buf := EncodeBlockFile(GenRMAT(16384, 16384*12, 101), 0)
	bg, err := OpenBlockReader(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		b.Fatalf("OpenBlockReader: %v", err)
	}
	return bg
}

// BenchmarkBlockLoad measures a cache miss after the first load: read, CRC
// check and row index of one block, cycling through every block.
func BenchmarkBlockLoad(b *testing.B) {
	bg := benchBlockGraph(b)
	nb := bg.NumBlocks(BlockOut)
	for i := 0; i < nb; i++ { // first loads: the full validating walk
		if _, err := bg.ReadBlock(BlockOut, i); err != nil {
			b.Fatalf("ReadBlock: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bg.ReadBlock(BlockOut, i%nb); err != nil {
			b.Fatalf("ReadBlock: %v", err)
		}
	}
}

// BenchmarkBlockRows measures a full decode of resident blocks: every row of
// every block walked through Each, one block per op.
func BenchmarkBlockRows(b *testing.B) {
	bg := benchBlockGraph(b)
	blks := make([]*Block, bg.NumBlocks(BlockOut))
	for i := range blks {
		var err error
		if blks[i], err = bg.ReadBlock(BlockOut, i); err != nil {
			b.Fatalf("ReadBlock: %v", err)
		}
	}
	var sum uint64
	yield := func(u VID, _ float32) bool { sum += uint64(u); return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blks[i%len(blks)]
		for v := blk.First(); blk.Contains(v); v++ {
			if err := blk.Each(v, yield); err != nil {
				b.Fatalf("Each: %v", err)
			}
		}
	}
	if sum == 0 {
		b.Fatalf("no edges iterated")
	}
}

// TestBlockFirstLoadConcurrent has two goroutines load every block of a
// fresh graph at once, so both run the first-load validation of the same
// blocks and race on its flags (CI runs this under -race), then walk every
// row of a block they share through one cache, as a worker's threads do.
func TestBlockFirstLoadConcurrent(t *testing.T) {
	g := WithRandomWeights(GenRandomDirected(512, 4096, 9), 2)
	bg := openBlockBytes(t, g, 512)
	c := NewBlockCache(bg, 1<<20)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, dir := range []int{BlockOut, BlockIn} {
				for b := 0; b < bg.NumBlocks(dir) && errs[i] == nil; b++ {
					_, errs[i] = bg.ReadBlock(dir, b)
				}
			}
			shared, err := c.Get(BlockIn, 0)
			if err != nil {
				errs[i] = err
				return
			}
			for v := shared.First(); shared.Contains(v) && errs[i] == nil; v++ {
				errs[i] = shared.Each(v, func(VID, float32) bool { return true })
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	assertSameTopology(t, g, bg)
}
