package graph

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadEdgeList throws arbitrary text at the edge-list parser: it must
// never panic, and on success the loaded graph must satisfy the CSR
// invariants (degree sums equal edge counts, adjacency sorted) and equal the
// sort-based reference build of the same parsed edges.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n", true)
	f.Add("# comment\n3 4 0.5\n", false)
	f.Add("x y\n", false)
	f.Add("0 1 2\n1 0 1\n0 1 0.5\n2 2 1\n", false)
	f.Fuzz(func(t *testing.T, text string, directed bool) {
		if len(text) > 1<<12 {
			return
		}
		opt := LoadOptions{Directed: directed, Weighted: true, MaxVertices: 1 << 16}
		g, err := LoadEdgeList(strings.NewReader(text), opt)
		if err != nil {
			return
		}
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			adj := g.OutNeighbors(VID(v))
			sum += len(adj)
			for i := 1; i < len(adj); i++ {
				if adj[i-1] >= adj[i] {
					t.Fatalf("unsorted or parallel adjacency of %d: %v", v, adj)
				}
			}
		}
		if sum != g.NumEdges() {
			t.Fatalf("degree sum %d != m %d", sum, g.NumEdges())
		}
		b, err := parseEdgeList(strings.NewReader(text), opt)
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		if want := refBuild(b); !reflect.DeepEqual(g, want) {
			t.Fatalf("loaded graph differs from the reference build")
		}
	})
}
