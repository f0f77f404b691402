package algo

import (
	"math"
	"testing"
	"testing/quick"

	"flash"
	"flash/graph"
	"flash/metrics"
)

// testGraphs are the undirected graphs most algorithm tests run over.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":     graph.GenPath(40),
		"cycle":    graph.GenCycle(31),
		"star":     graph.GenStar(25),
		"grid":     graph.GenGrid(6, 7, 2, 1),
		"er":       graph.GenErdosRenyi(90, 360, 3),
		"rmat":     graph.GenRMAT(64, 300, 4),
		"complete": graph.GenComplete(9),
		"tree":     graph.GenTree(50, 5),
	}
}

var workerCounts = []int{1, 3}

func forAll(t *testing.T, f func(t *testing.T, name string, g *graph.Graph, opts []flash.Option)) {
	t.Helper()
	for name, g := range testGraphs() {
		for _, w := range workerCounts {
			opts := []flash.Option{flash.WithWorkers(w)}
			t.Run(name+"/w"+string(rune('0'+w)), func(t *testing.T) {
				f(t, name, g, opts)
			})
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		got, err := BFS(g, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := refBFS(g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestCCMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		got, err := CC(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := refComponents(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("cc[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestCCOptMatchesCC(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		res, err := CCOpt(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := refComponents(g)
		if !samePartition(res.Labels, want) {
			t.Fatalf("CCOpt partition differs from reference")
		}
	})
}

// TestCCOptFastOnLargeDiameter reproduces the paper's Appendix B claim in
// shape: on a large-diameter graph, CC-opt needs exponentially fewer rounds
// than label propagation needs iterations.
func TestCCOptFastOnLargeDiameter(t *testing.T) {
	g := graph.GenPath(512)
	col := metrics.New()
	if _, err := CC(g, flash.WithWorkers(2), flash.WithCollector(col)); err != nil {
		t.Fatal(err)
	}
	basicSteps := col.Supersteps
	res, err := CCOpt(g, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds >= basicSteps/8 {
		t.Fatalf("CC-opt rounds %d not far below CC steps %d", res.Rounds, basicSteps)
	}
	if res.Rounds > 2+2*int(math.Log2(512)) {
		t.Fatalf("CC-opt rounds %d exceeds O(log n) bound", res.Rounds)
	}
}

func TestBCMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		got, err := BC(g, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := refBC(g, 0)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6 {
				t.Fatalf("bc[%d] = %g, want %g", v, got[v], want[v])
			}
		}
	})
}

func TestMISIsIndependentAndMaximal(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		in, err := MIS(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		g.Edges(func(u, v graph.VID, _ float32) bool {
			if in[u] && in[v] {
				t.Fatalf("adjacent vertices %d,%d both in MIS", u, v)
			}
			return true
		})
		for v := 0; v < g.NumVertices(); v++ {
			if in[v] {
				continue
			}
			covered := false
			for _, u := range g.OutNeighbors(graph.VID(v)) {
				if in[u] {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("vertex %d outside MIS with no MIS neighbor", v)
			}
		}
	})
}

func checkMatching(t *testing.T, g *graph.Graph, match []int32) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		p := match[v]
		if p == -1 {
			continue
		}
		if match[p] != int32(v) {
			t.Fatalf("asymmetric match: %d->%d but %d->%d", v, p, p, match[p])
		}
		if !g.HasEdge(graph.VID(v), graph.VID(p)) {
			t.Fatalf("matched pair (%d,%d) not an edge", v, p)
		}
	}
	g.Edges(func(u, v graph.VID, _ float32) bool {
		if match[u] == -1 && match[v] == -1 {
			t.Fatalf("edge (%d,%d) with both endpoints unmatched: not maximal", u, v)
		}
		return true
	})
}

func TestMMIsMaximalMatching(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		match, err := MM(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		checkMatching(t, g, match)
	})
}

func TestMMOptIsMaximalMatching(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		match, err := MMOpt(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		checkMatching(t, g, match)
	})
}

func TestKCMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		want := refCore(g)
		got, err := KC(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("core[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestKCOptMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		want := refCore(g)
		got, err := KCOpt(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("core[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestTCMatchesReference(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		got, err := TC(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if want := refTC(g); got != want {
			t.Fatalf("triangles = %d, want %d", got, want)
		}
	})
}

func TestTCKnownCounts(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		want int64
	}{
		{graph.GenComplete(4), 4},
		{graph.GenComplete(5), 10},
		{graph.GenPath(10), 0},
		{graph.GenCycle(3), 1},
		{graph.GenStar(10), 0},
	} {
		got, err := TC(tc.g, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("%s: triangles = %d, want %d", tc.g.Name(), got, tc.want)
		}
	}
}

func TestGCIsProperColoring(t *testing.T) {
	forAll(t, func(t *testing.T, name string, g *graph.Graph, opts []flash.Option) {
		colors, err := GC(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		g.Edges(func(u, v graph.VID, _ float32) bool {
			if u != v && colors[u] == colors[v] {
				t.Fatalf("edge (%d,%d) same color %d", u, v, colors[u])
			}
			return true
		})
		_, maxDeg := g.MaxOutDegree()
		if nc := CountColors(colors); nc > maxDeg+1 {
			t.Fatalf("%d colors exceeds maxdeg+1 = %d", nc, maxDeg+1)
		}
	})
}

func TestSCCMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"randdir": graph.GenRandomDirected(60, 200, 7),
		"cycle":   graph.FromEdges(5, true, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}),
		"dag":     graph.FromEdges(6, true, [][2]graph.VID{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 5}}),
		"two-scc": graph.FromEdges(6, true, [][2]graph.VID{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {1, 2}}),
	}
	for name, g := range graphs {
		for _, w := range workerCounts {
			got, err := SCC(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			want := refSCC(g)
			if !samePartition(got, want) {
				t.Fatalf("%s w=%d: SCC partition mismatch\n got=%v\nwant=%v", name, w, got, want)
			}
		}
	}
}

func TestBCCCounts(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"triangle":      graph.GenCycle(3),
		"two-triangles": graph.FromEdges(5, false, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}}),
		"bridge":        graph.FromEdges(6, false, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}}),
		"path":          graph.GenPath(8),
		"cycle":         graph.GenCycle(9),
		"grid":          graph.GenGrid(4, 5, 0, 1),
		"er":            graph.GenErdosRenyi(40, 90, 9),
		"tree":          graph.GenTree(30, 3),
	}
	for name, g := range graphs {
		for _, w := range workerCounts {
			res, err := BCC(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := CountBCCs(res), refBCCCount(g); got != want {
				t.Fatalf("%s w=%d: %d BCCs, want %d", name, w, got, want)
			}
		}
	}
}

func TestBCCSharedCycleSameLabel(t *testing.T) {
	// In the bridge graph, vertices 1,2 (triangle side) must share a label;
	// 4,5 (other cycle) must share a label distinct from the triangle's.
	g := graph.FromEdges(6, false, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}})
	res, err := BCC(g, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[1] != res.Labels[2] {
		t.Fatalf("triangle labels differ: %v", res.Labels)
	}
	if res.Labels[4] != res.Labels[5] {
		t.Fatalf("cycle labels differ: %v", res.Labels)
	}
	if res.Labels[1] == res.Labels[4] {
		t.Fatalf("distinct BCCs share a label: %v", res.Labels)
	}
}

func TestLPAFindsCommunities(t *testing.T) {
	// Two K6 cliques joined by one edge: LPA must give each clique one
	// label and the labels must differ.
	b := graph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(graph.VID(i), graph.VID(j))
			b.AddEdge(graph.VID(i+6), graph.VID(j+6))
		}
	}
	b.AddEdge(0, 6)
	g := b.Build()
	for _, w := range workerCounts {
		labels, err := LPA(g, 30, flash.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < 6; v++ {
			if labels[v] != labels[1] {
				t.Fatalf("w=%d: clique 1 fragmented: %v", w, labels)
			}
			if labels[v+6] != labels[7] {
				t.Fatalf("w=%d: clique 2 fragmented: %v", w, labels)
			}
		}
	}
}

func TestMSFMatchesKruskal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := graph.WithRandomWeights(graph.GenErdosRenyi(70, 240, seed), seed)
		for _, w := range workerCounts {
			res, err := MSF(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			// Sequential reference over all edges.
			var all []MSFEdge
			g.Edges(func(u, v graph.VID, wt float32) bool {
				if u < v {
					all = append(all, MSFEdge{U: u, V: v, W: wt})
				}
				return true
			})
			ref := kruskal(g.NumVertices(), all)
			var refW float64
			for _, e := range ref {
				refW += float64(e.W)
			}
			if len(res.Edges) != len(ref) {
				t.Fatalf("seed=%d w=%d: %d forest edges, want %d", seed, w, len(res.Edges), len(ref))
			}
			if math.Abs(res.Weight-refW) > 1e-4 {
				t.Fatalf("seed=%d w=%d: weight %g, want %g", seed, w, res.Weight, refW)
			}
		}
	}
	if _, err := MSF(graph.GenPath(4)); err == nil {
		t.Fatal("MSF on unweighted graph should error")
	}
}

func TestRCMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"square":   graph.GenCycle(4),
		"k4":       graph.GenComplete(4),
		"k5":       graph.GenComplete(5),
		"grid":     graph.GenGrid(4, 4, 0, 1),
		"er-small": graph.GenErdosRenyi(24, 70, 5),
		"star":     graph.GenStar(8),
	}
	for name, g := range graphs {
		for _, w := range workerCounts {
			got, err := RC(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if want := refRC(g); got != want {
				t.Fatalf("%s w=%d: rectangles = %d, want %d", name, w, got, want)
			}
		}
	}
}

func TestCLMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"k5":       graph.GenComplete(5),
		"k6":       graph.GenComplete(6),
		"er-small": graph.GenErdosRenyi(22, 80, 6),
		"grid":     graph.GenGrid(4, 4, 0, 1),
	}
	for name, g := range graphs {
		for _, k := range []int{3, 4, 5} {
			got, err := CL(g, k, flash.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if want := refCL(g, k); got != want {
				t.Fatalf("%s k=%d: cliques = %d, want %d", name, k, got, want)
			}
		}
	}
	// CL(k=3) must agree with TC.
	g := graph.GenErdosRenyi(30, 120, 8)
	cl3, err := CL(g, 3, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := TC(g, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if cl3 != tc {
		t.Fatalf("CL(3)=%d != TC=%d", cl3, tc)
	}
	// Trivial k values.
	if c, _ := CL(g, 1, flash.WithWorkers(1)); c != int64(g.NumVertices()) {
		t.Fatalf("CL(1) = %d", c)
	}
	if c, _ := CL(g, 0, flash.WithWorkers(1)); c != 0 {
		t.Fatalf("CL(0) = %d", c)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenErdosRenyi(80, 320, 4), 9)
	for _, w := range workerCounts {
		got, err := SSSP(g, 0, flash.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		want := refDijkstra(g, 0)
		for v := range want {
			if math.Abs(float64(got[v]-want[v])) > 1e-4 {
				t.Fatalf("w=%d: dist[%d] = %g, want %g", w, v, got[v], want[v])
			}
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	// Ranks sum to 1 and are uniform on a cycle.
	g := graph.GenCycle(20)
	pr, err := PageRank(g, 50, 1e-10, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g", sum)
	}
	for v := 1; v < 20; v++ {
		if math.Abs(pr[v]-pr[0]) > 1e-9 {
			t.Fatalf("cycle ranks not uniform: %g vs %g", pr[v], pr[0])
		}
	}
	// Star center dominates.
	s := graph.GenStar(30)
	pr, err = PageRank(s, 50, 1e-12, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 30; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("star center rank %g not above leaf %g", pr[0], pr[v])
		}
	}
}

// TestQuickManyAlgorithmsOnRandomGraphs cross-validates several algorithms
// on random graphs with random worker counts.
func TestQuickManyAlgorithmsOnRandomGraphs(t *testing.T) {
	f := func(seed int64, nn, mm, ww uint8) bool {
		n := int(nn)%40 + 4
		m := int(mm) % 150
		w := int(ww)%3 + 1
		g := graph.GenErdosRenyi(n, m, seed)
		opts := []flash.Option{flash.WithWorkers(w)}

		got, err := BFS(g, 0, opts...)
		if err != nil {
			return false
		}
		want := refBFS(g, 0)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}

		cc, err := CC(g, opts...)
		if err != nil {
			return false
		}
		refCC := refComponents(g)
		for v := range refCC {
			if cc[v] != refCC[v] {
				return false
			}
		}

		tc, err := TC(g, opts...)
		if err != nil {
			return false
		}
		if tc != refTC(g) {
			return false
		}

		mis, err := MIS(g, opts...)
		if err != nil {
			return false
		}
		ok := true
		g.Edges(func(u, v graph.VID, _ float32) bool {
			if mis[u] && mis[v] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// refDijkstra is a simple O(n^2) Dijkstra for the SSSP test.
func refDijkstra(g *graph.Graph, root graph.VID) []float32 {
	n := g.NumVertices()
	dist := make([]float32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = float32(math.Inf(1))
	}
	dist[root] = 0
	for {
		u, best := -1, float32(math.Inf(1))
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		ws := g.OutWeights(graph.VID(u))
		for i, v := range g.OutNeighbors(graph.VID(u)) {
			if nd := dist[u] + ws[i]; nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	return dist
}

func TestClusteringCoefficient(t *testing.T) {
	// Complete graph: every local coefficient is 1 and so is the global.
	res, err := ClusteringCoefficient(graph.GenComplete(6), flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Local {
		if math.Abs(c-1) > 1e-9 {
			t.Fatalf("K6 local cc[%d] = %g", v, c)
		}
	}
	if math.Abs(res.Global-1) > 1e-9 {
		t.Fatalf("K6 global cc = %g", res.Global)
	}
	// Star: no triangles anywhere.
	res, err = ClusteringCoefficient(graph.GenStar(10), flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Global != 0 || res.Local[0] != 0 {
		t.Fatalf("star cc: %+v", res)
	}
	// Triangle with a pendant: vertex 0 has coefficient 1/3.
	g := graph.FromEdges(4, false, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	res, err = ClusteringCoefficient(g, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Local[0]-1.0/3) > 1e-9 || math.Abs(res.Local[1]-1) > 1e-9 {
		t.Fatalf("pendant cc: %+v", res.Local)
	}
}

func TestKTruss(t *testing.T) {
	// K5 is a 5-truss: every edge survives k=3..5, nothing survives k=6.
	k5 := graph.GenComplete(5)
	for _, k := range []int{3, 4, 5} {
		edges, err := KTruss(k5, k, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != 10 {
			t.Fatalf("K5 truss k=%d: %d edges, want 10", k, len(edges))
		}
	}
	edges, err := KTruss(k5, 6, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Fatalf("K5 truss k=6: %d edges, want 0", len(edges))
	}
	// Triangle with pendant: the pendant edge is never in a 3-truss.
	g := graph.FromEdges(4, false, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	edges, err = KTruss(g, 3, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("triangle+pendant truss: %v", edges)
	}
	for _, e := range edges {
		if e[0] == 3 || e[1] == 3 {
			t.Fatalf("pendant edge survived: %v", edges)
		}
	}
}

func TestDiameterEstimate(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int32
	}{
		{graph.GenPath(50), 49},
		{graph.GenCycle(10), 5},
		{graph.GenStar(9), 2},
		{graph.GenComplete(5), 1},
	}
	for _, tc := range cases {
		got, err := DiameterEstimate(tc.g, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("%s: diameter %d, want %d", tc.g.Name(), got, tc.want)
		}
	}
	// Grid diameter = rows+cols-2 (double sweep is exact here).
	g := graph.GenGrid(7, 11, 0, 1)
	got, err := DiameterEstimate(g, flash.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("grid diameter %d, want 16", got)
	}
}

func TestBipartite(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.GenPath(10), true},
		{graph.GenCycle(8), true},
		{graph.GenCycle(7), false},
		{graph.GenStar(9), true},
		{graph.GenComplete(3), false},
		{graph.GenGrid(5, 6, 0, 1), true},
		{graph.GenTree(40, 2), true},
	}
	for _, tc := range cases {
		res, err := Bipartite(tc.g, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if res.IsBipartite != tc.want {
			t.Fatalf("%s: bipartite=%v want %v", tc.g.Name(), res.IsBipartite, tc.want)
		}
		if res.IsBipartite {
			tc.g.Edges(func(u, v graph.VID, _ float32) bool {
				if res.Side[u] == res.Side[v] {
					t.Fatalf("%s: edge (%d,%d) same side", tc.g.Name(), u, v)
				}
				return true
			})
		}
	}
	// Disconnected: one even cycle + one odd cycle => not bipartite.
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 0) // C4
	b.AddEdge(4, 5).AddEdge(5, 6).AddEdge(6, 4)               // C3
	res, err := Bipartite(b.Build(), flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBipartite {
		t.Fatal("odd component missed")
	}
}

func TestMultiBFS(t *testing.T) {
	g := graph.GenPath(11)
	dis, err := MultiBFS(g, []graph.VID{0, 10}, flash.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v <= 10; v++ {
		want := int32(v)
		if int32(10-v) < want {
			want = int32(10 - v)
		}
		if dis[v] != want {
			t.Fatalf("dist[%d]=%d want %d", v, dis[v], want)
		}
	}
	// Unreachable vertices report -1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	dis, err = MultiBFS(b.Build(), []graph.VID{0}, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if dis[2] != -1 || dis[3] != -1 || dis[1] != 1 {
		t.Fatalf("multibfs: %v", dis)
	}
}

func TestMSFBoruvkaMatchesKruskal(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		g := graph.WithRandomWeights(graph.GenErdosRenyi(60, 200, seed), seed)
		for _, w := range workerCounts {
			want, err := MSF(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			got, err := MSFBoruvka(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Edges) != len(want.Edges) {
				t.Fatalf("seed=%d w=%d: %d edges, want %d", seed, w, len(got.Edges), len(want.Edges))
			}
			if math.Abs(got.Weight-want.Weight) > 1e-3 {
				t.Fatalf("seed=%d w=%d: weight %g want %g", seed, w, got.Weight, want.Weight)
			}
		}
	}
	if _, err := MSFBoruvka(graph.GenPath(4)); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}

func TestAssortativity(t *testing.T) {
	// A k-regular graph has undefined Pearson denominator -> 0 by
	// convention; avg neighbor degree equals k.
	res, err := Assortativity(graph.GenCycle(12), flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, a := range res.AvgNeighborDegree {
		if a != 2 {
			t.Fatalf("cycle knn[%d]=%g", v, a)
		}
	}
	if res.Coefficient != 0 {
		t.Fatalf("regular graph coefficient %g", res.Coefficient)
	}
	// A star is maximally disassortative: coefficient -1.
	res, err = Assortativity(graph.GenStar(12), flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coefficient-(-1)) > 1e-9 {
		t.Fatalf("star coefficient %g, want -1", res.Coefficient)
	}
	if res.AvgNeighborDegree[0] != 1 || res.AvgNeighborDegree[1] != 11 {
		t.Fatalf("star knn: %v", res.AvgNeighborDegree[:3])
	}
}
