package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
//
// Building performs: optional symmetrization (undirected mode), per-vertex
// neighbor sorting, merging of parallel edges (keeping the smallest weight),
// and optional self-loop elimination. These normalizations are what the
// algorithms in this repository assume; in particular no built Graph has
// parallel edges.
type Builder struct {
	n          int
	directed   bool
	weighted   bool
	keepLoops  bool
	name       string
	srcs, dsts []VID
	ws         []float32
}

// NewBuilder returns a Builder for a graph with n vertices. By default the
// graph is undirected, unweighted, and self-loop-free.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Directed sets whether edges are directed. For undirected graphs every
// added edge is stored in both directions.
func (b *Builder) Directed(d bool) *Builder { b.directed = d; return b }

// Weighted enables edge weights; AddEdgeW must then be used (AddEdge adds
// weight 1).
func (b *Builder) Weighted(w bool) *Builder { b.weighted = w; return b }

// KeepSelfLoops retains self-loop edges (dropped by default).
func (b *Builder) KeepSelfLoops(k bool) *Builder { b.keepLoops = k; return b }

// Name attaches a dataset name carried by the built Graph.
func (b *Builder) Name(s string) *Builder { b.name = s; return b }

// AddEdge records the edge u->v (and v->u when undirected) with weight 1.
func (b *Builder) AddEdge(u, v VID) *Builder { return b.AddEdgeW(u, v, 1) }

// AddEdgeW records the edge u->v with weight w.
func (b *Builder) AddEdgeW(u, v VID, w float32) *Builder {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	if b.weighted {
		b.ws = append(b.ws, w)
	}
	return b
}

// Build finalizes the graph. The builder may not be reused afterwards.
//
// Construction is linear in the edge count apart from sorting each row:
// edges are bucketed by source, every out-row is sorted by (target, weight)
// and parallel edges merged, and the in-adjacency is scattered from the
// finished out-rows in ascending source order, which leaves every in-list
// sorted by source.
func (b *Builder) Build() *Graph {
	off := make([]int64, b.n+1)
	for i, u := range b.srcs {
		v := b.dsts[i]
		if u == v && !b.keepLoops {
			continue
		}
		off[u+1]++
		if !b.directed && u != v {
			off[v+1]++
		}
	}
	for i := 0; i < b.n; i++ {
		off[i+1] += off[i]
	}
	pos := make([]int64, b.n)
	copy(pos, off[:b.n])

	var adj []VID
	var ws []float32
	if b.weighted {
		adj, ws = b.weightedRows(off, pos)
	} else {
		adj = b.unweightedRows(off, pos)
	}
	m := len(adj)

	g := &Graph{n: b.n, m: m, directed: b.directed, name: b.name, outOff: off, outAdj: adj, outW: ws}
	g.inOff = make([]int64, b.n+1)
	for _, v := range adj {
		g.inOff[v+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inAdj = make([]VID, m)
	copy(pos, g.inOff[:b.n])
	for u := 0; u < b.n; u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			g.inAdj[pos[v]] = VID(u)
			pos[v]++
		}
	}
	if b.weighted {
		g.inW = g.inWeights(ws)
	}
	return g
}

// inWeights lines outW up with the in-adjacency. In-lists are sorted by
// source, so scattering the out-rows in ascending source order fills each
// in-list's weights in order.
func (g *Graph) inWeights(outW []float32) []float32 {
	inW := make([]float32, g.m)
	pos := make([]int64, g.n)
	copy(pos, g.inOff[:g.n])
	for u := 0; u < g.n; u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			v := g.outAdj[i]
			inW[pos[v]] = outW[i]
			pos[v]++
		}
	}
	return inW
}

// unweightedRows scatters the edges into out-rows laid out by off (pos holds
// each row's write cursor), sorts each row, merges parallel edges, and
// rewrites off to the merged layout.
func (b *Builder) unweightedRows(off, pos []int64) []VID {
	adj := make([]VID, off[b.n])
	for i, u := range b.srcs {
		v := b.dsts[i]
		if u == v && !b.keepLoops {
			continue
		}
		adj[pos[u]] = v
		pos[u]++
		if !b.directed && u != v {
			adj[pos[v]] = u
			pos[v]++
		}
	}
	var w int64
	for u, lo := 0, int64(0); u < b.n; u++ {
		hi, start := off[u+1], w
		row := adj[lo:hi]
		slices.Sort(row)
		for _, v := range row {
			if w > start && adj[w-1] == v {
				continue
			}
			adj[w] = v
			w++
		}
		off[u+1], lo = w, hi
	}
	return rightSize(adj, w)
}

// weightedRows is unweightedRows for weighted edges: rows sort by (target,
// weight), so merging parallel edges keeps the smallest weight.
func (b *Builder) weightedRows(off, pos []int64) ([]VID, []float32) {
	type arc struct {
		v VID
		w float32
	}
	arcs := make([]arc, off[b.n])
	for i, u := range b.srcs {
		v := b.dsts[i]
		if u == v && !b.keepLoops {
			continue
		}
		arcs[pos[u]] = arc{v, b.ws[i]}
		pos[u]++
		if !b.directed && u != v {
			arcs[pos[v]] = arc{u, b.ws[i]}
			pos[v]++
		}
	}
	adj := make([]VID, len(arcs))
	ws := make([]float32, len(arcs))
	var w int64
	for u, lo := 0, int64(0); u < b.n; u++ {
		hi, start := off[u+1], w
		row := arcs[lo:hi]
		slices.SortFunc(row, func(x, y arc) int {
			if c := cmp.Compare(x.v, y.v); c != 0 {
				return c
			}
			return cmp.Compare(x.w, y.w)
		})
		for _, a := range row {
			if w > start && adj[w-1] == a.v {
				continue
			}
			adj[w], ws[w] = a.v, a.w
			w++
		}
		off[u+1], lo = w, hi
	}
	return rightSize(adj, w), rightSize(ws, w)
}

// rightSize returns s[:n] in an array of exactly n elements, so merging
// parallel edges never leaves slack that Graph.MemBytes would count.
func rightSize[T any](s []T, n int64) []T {
	if int64(len(s)) == n {
		return s
	}
	return append(make([]T, 0, n), s[:n]...)
}

// FromEdges is a convenience constructor for tests and examples: it builds an
// unweighted graph from (u,v) pairs.
func FromEdges(n int, directed bool, edges [][2]VID) *Graph {
	b := NewBuilder(n).Directed(directed)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Reverse returns the graph with every stored directed edge flipped. It
// shares g's immutable arrays: the reversed out-adjacency is g's
// in-adjacency, already sorted by source. For undirected graphs (which store
// both directions) the result is structurally identical to the input.
func Reverse(g *Graph) *Graph {
	if g.Skeleton() {
		skeletonPanic()
	}
	return &Graph{
		n: g.n, m: g.m, directed: g.directed, name: g.name + "-rev",
		outOff: g.inOff, outAdj: g.inAdj, outW: g.inW,
		inOff: g.outOff, inAdj: g.outAdj, inW: g.outW,
	}
}
