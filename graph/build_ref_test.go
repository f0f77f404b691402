package graph

import (
	"math/rand"
	"sort"
)

// The sort-based Build, map-based WithRandomWeights and rebuilding Reverse
// that the linear-time versions replaced. They are kept only as references
// for the equivalence tests.

type refEdge struct {
	u, v VID
	w    float32
}

// refBuild comparison-sorts every stored edge by (source, target, weight),
// drops parallel edges after the first (the smallest weight), and fills both
// adjacencies from the sorted list. It reads b without modifying it.
func refBuild(b *Builder) *Graph {
	edges := make([]refEdge, 0, len(b.srcs)*2)
	for i := range b.srcs {
		u, v := b.srcs[i], b.dsts[i]
		if u == v && !b.keepLoops {
			continue
		}
		var w float32 = 1
		if b.weighted {
			w = b.ws[i]
		}
		edges = append(edges, refEdge{u, v, w})
		if !b.directed && u != v {
			edges = append(edges, refEdge{v, u, w})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].w < edges[j].w
	})
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].u == e.u && out[len(out)-1].v == e.v {
			continue
		}
		out = append(out, e)
	}
	edges = out

	g := &Graph{n: b.n, m: len(edges), directed: b.directed, name: b.name}
	g.outOff = make([]int64, b.n+1)
	g.inOff = make([]int64, b.n+1)
	g.outAdj = make([]VID, len(edges))
	g.inAdj = make([]VID, len(edges))
	if b.weighted {
		g.outW = make([]float32, len(edges))
		g.inW = make([]float32, len(edges))
	}
	for _, e := range edges {
		g.outOff[e.u+1]++
		g.inOff[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	pos := make([]int64, b.n)
	copy(pos, g.outOff[:b.n])
	for _, e := range edges {
		p := pos[e.u]
		g.outAdj[p] = e.v
		if b.weighted {
			g.outW[p] = e.w
		}
		pos[e.u]++
	}
	copy(pos, g.inOff[:b.n])
	for _, e := range edges {
		p := pos[e.v]
		g.inAdj[p] = e.u
		if b.weighted {
			g.inW[p] = e.w
		}
		pos[e.v]++
	}
	return g
}

// refWithRandomWeights draws a weight per first-seen (min, max) pair through
// a map and rebuilds a weighted copy. Like every Builder round-trip it drops
// self-loops.
func refWithRandomWeights(g *Graph, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g.n).Directed(true).Weighted(true).Name(g.name + "-w")
	type key struct{ u, v VID }
	seen := make(map[key]float32)
	g.Edges(func(u, v VID, _ float32) bool {
		a, z := u, v
		if !g.Directed() && a > z {
			a, z = z, a
		}
		w, ok := seen[key{a, z}]
		if !ok {
			w = float32(rng.Float64()*0.999) + 0.001
			seen[key{a, z}] = w
		}
		b.AddEdgeW(u, v, w)
		return true
	})
	wg := refBuild(b)
	wg.directed = g.directed
	return wg
}

// refReverse rebuilds g with every edge flipped; it too drops self-loops.
func refReverse(g *Graph) *Graph {
	b := NewBuilder(g.n).Directed(true).Weighted(g.Weighted()).Name(g.name + "-rev")
	g.Edges(func(u, v VID, w float32) bool {
		b.AddEdgeW(v, u, w)
		return true
	})
	rg := refBuild(b)
	rg.directed = g.directed
	return rg
}
