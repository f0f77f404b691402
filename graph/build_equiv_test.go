package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// csrDigest is an FNV-64a digest of every field that defines a built graph:
// its header, both offset arrays, both adjacencies and both weight arrays.
func csrDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	dir := uint64(0)
	if g.directed {
		dir = 1
	}
	put(uint64(g.n))
	put(uint64(g.m))
	put(dir)
	h.Write([]byte(g.name))
	for _, a := range [][]int64{g.outOff, g.inOff} {
		put(uint64(len(a)))
		for _, x := range a {
			put(uint64(x))
		}
	}
	for _, a := range [][]VID{g.outAdj, g.inAdj} {
		put(uint64(len(a)))
		for _, x := range a {
			binary.LittleEndian.PutUint32(buf[:4], uint32(x))
			h.Write(buf[:4])
		}
	}
	for _, a := range [][]float32{g.outW, g.inW} {
		put(uint64(len(a)))
		for _, x := range a {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(x))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

func hasSelfLoop(g *Graph) bool {
	for u := 0; u < g.n; u++ {
		if g.HasEdge(VID(u), VID(u)) {
			return true
		}
	}
	return false
}

// checkAgainstRef builds b both ways and compares the graph, its random
// weighting and its reverse with the references. It returns the built graph.
func checkAgainstRef(t *testing.T, name string, b *Builder, weightSeed int64) *Graph {
	t.Helper()
	g := b.Build()
	if want := refBuild(b); !reflect.DeepEqual(g, want) {
		t.Fatalf("%s: Build differs from the sort-based reference", name)
	}
	// The references rebuild through a Builder and so drop self-loops; the
	// new versions share g's topology and keep them.
	if hasSelfLoop(g) {
		if wg, rg := WithRandomWeights(g, weightSeed), Reverse(g); wg.m != g.m || rg.m != g.m {
			t.Fatalf("%s: weighting or reversal changed the topology of a graph with self-loops", name)
		}
		return g
	}
	if got, want := WithRandomWeights(g, weightSeed), refWithRandomWeights(g, weightSeed); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: WithRandomWeights differs from the map-based reference", name)
	}
	if got, want := Reverse(g), refReverse(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Reverse differs from the rebuilding reference", name)
	}
	return g
}

// randomBuilder draws a small builder input: directed or not, weighted with
// heavily tied weights or not, with parallel edges, self-loops (kept or not)
// and isolated vertices, down to n = 0 and 1.
func randomBuilder(seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(40)
	b := NewBuilder(n).Directed(rng.Intn(2) == 0).Weighted(rng.Intn(2) == 0).KeepSelfLoops(rng.Intn(3) == 0)
	if n == 0 {
		return b
	}
	span := 1 + rng.Intn(n) // ids >= span stay isolated
	for i, m := 0, rng.Intn(4*n+1); i < m; i++ {
		w := float32(1+rng.Intn(3)) / 2
		b.AddEdgeW(VID(rng.Intn(span)), VID(rng.Intn(span)), w)
	}
	return b
}

func TestBuildMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBuilder(seed)
		checkAgainstRef(t, "random", b, seed)
		if b.weighted {
			// The same input read unweighted must match too.
			b.weighted, b.ws = false, nil
			checkAgainstRef(t, "random-unweighted", b, seed)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, "n=0", NewBuilder(0), 1)
	checkAgainstRef(t, "n=1", NewBuilder(1).Weighted(true), 1)
	checkAgainstRef(t, "n=1 loop", NewBuilder(1).KeepSelfLoops(true).AddEdge(0, 0), 1)
}

// TestGeneratorDatasetsPinned builds every generator at the benchmark's sizes
// through both Builds and pins the result, and its random weighting, to
// digests and MemBytes computed with the sort-based Build, so any change to
// the datasets fails here.
func TestGeneratorDatasetsPinned(t *testing.T) {
	cases := []struct {
		name          string
		build         func() *Builder
		weightSeed    int64 // 0: no weighted copy pinned
		digest, mem   uint64
		wDigest, wMem uint64
	}{
		{"rmat-4096x12", func() *Builder { return rmatBuilder(4096, 4096*12, 101) }, 101, 0x904e878a3acca6dc, 737456, 0xb4b32d338a7662c4, 1409360},
		{"rmat-16384x196608", func() *Builder { return rmatBuilder(16384, 196608, 101) }, 101, 0xa6ef54ed47790d83, 3161536, 0xfff6063951dfb16b, 6060912},
		{"rmat-65536x2359296", func() *Builder { return rmatBuilder(65536, 2359296, 101) }, 0, 0x7e876c945d33c90f, 32338496, 0, 0},
		{"grid-640x40c12", func() *Builder { return gridBuilder(640, 40, 12, 303) }, 303, 0xd0da757d1bf41866, 1218128, 0x14ddaf687618d07e, 2026640},
		{"grid-160x40", func() *Builder { return gridBuilder(160, 40, 0, 303) }, 303, 0x62e7c3ce23ad1e00, 304016, 0x350a23025237f520, 505616},
		{"web-4096", func() *Builder { return webBuilder(4096, 13, 32, 7) }, 7, 0xfcf9bf14ddce2e8f, 450752, 0xd3c3ae37afdabf53, 835952},
		{"er-4096", func() *Builder { return erBuilder(4096, 4096*8, 7) }, 7, 0x835653c5708e75db, 588784, 0x7628c160375e79e7, 1112016},
		{"randdir-4096", func() *Builder { return randDirBuilder(4096, 4096*8, 7) }, 7, 0x39cb0247d3c4e566, 327376, 0x3b666532793943e, 589200},
		{"tree-4096", func() *Builder { return treeBuilder(4096, 7) }, 7, 0x2a508b4f8555602, 131072, 0xa456496b54537982, 196592},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var g *Graph
			if c.mem > 8<<20 && (testing.Short() || raceEnabled) {
				g = c.build().Build() // the pinned digest alone
			} else {
				g = checkAgainstRef(t, c.name, c.build(), c.weightSeed)
			}
			if d := csrDigest(g); d != c.digest || g.MemBytes() != c.mem {
				t.Errorf("digest %#x MemBytes %d, pinned %#x %d", d, g.MemBytes(), c.digest, c.mem)
			}
			if c.weightSeed == 0 {
				return
			}
			wg := WithRandomWeights(g, c.weightSeed)
			if d := csrDigest(wg); d != c.wDigest || wg.MemBytes() != c.wMem {
				t.Errorf("weighted: digest %#x MemBytes %d, pinned %#x %d", d, wg.MemBytes(), c.wDigest, c.wMem)
			}
		})
	}
}

// BenchmarkBuild times Build on the social-lib RMAT (16384 vertices, 196608
// edge draws); the edges are drawn once, outside the timer.
func BenchmarkBuild(b *testing.B) {
	bl := rmatBuilder(16384, 196608, 101)
	b.ReportAllocs()
	for b.Loop() {
		bl.Build()
	}
}

// BenchmarkWithRandomWeights times weighting the same RMAT graph.
func BenchmarkWithRandomWeights(b *testing.B) {
	g := GenRMAT(16384, 196608, 101)
	b.ReportAllocs()
	for b.Loop() {
		WithRandomWeights(g, 101)
	}
}
