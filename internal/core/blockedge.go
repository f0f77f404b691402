// The out-of-core base edge set: E over a FLASHBLK block graph.
//
// blockEdges makes the engine's kernels storage-oblivious — EdgeMapSparse and
// EdgeMapDense call the same Out/In iterator interface, but each call resolves
// the vertex's block and serves the adjacency from the worker's bounded block
// cache instead of an in-memory CSR row. Cached blocks stay encoded and each
// call decodes only the row it walks, stopping when the kernel's yield does
// (the pull kernel's early exit). The bimodal scheduling of M-Flash
// falls out of the engine's existing Ligra density switch:
//
//   - Dense supersteps pull over every local master in ascending gid order,
//     which under range placement is a sequential stream over the worker's
//     partition of the block file — each block is read once per superstep no
//     matter how small the cache is.
//   - Sparse supersteps push only from active sources, so before phase 1 the
//     worker computes the per-block frontier-residency bitmap (which blocks
//     contain at least one active source) and hands it to the cache as the
//     step's plan; only those blocks are read.
package core

import (
	"fmt"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/partition"
)

// blockEdges is E served from the FLASHBLK backend. Zero-sized: all state
// lives on the worker (cache) and the engine config (block graph).
type blockEdges[V any] struct{}

// eachRow fetches block idx through the worker's cache and walks v's row,
// decoding only as far as yield asks. An I/O or corruption error panics,
// which parallelWorkers converts into a clean non-recoverable superstep
// failure (replaying a read against a corrupt file would fail identically).
//
//flash:hotpath
func eachRow[V any](c *Ctx[V], dir, idx int, v graph.VID, yield func(graph.VID, float32) bool) {
	blk, err := c.w.bcache.Get(dir, idx)
	if err == nil {
		err = blk.Each(v, yield)
	}
	if err != nil {
		panic(fmt.Errorf("core: out-of-core edge read: %w", err))
	}
}

//flash:hotpath
func (blockEdges[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	eachRow(c, graph.BlockOut, c.w.eng.cfg.BlockGraph.OutBlockOf(u), u, yield)
}

//flash:hotpath
func (blockEdges[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	eachRow(c, graph.BlockIn, c.w.eng.cfg.BlockGraph.InBlockOf(d), d, yield)
}

func (blockEdges[V]) SupportsIn() bool  { return true }
func (blockEdges[V]) SupportsOut() bool { return true }
func (blockEdges[V]) Physical() bool    { return true }

// OutDegreeHint reads the skeleton's resident offset array — no I/O, so the
// density rule stays as cheap as in-memory.
func (blockEdges[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	return c.G.OutDegree(u)
}

// E returns the engine's base edge set: the block-backed iterator when the
// engine runs out-of-core, the in-memory CSR iterator otherwise. Derived
// sets (ReverseE, JoinEU, ...) compose over either transparently.
func (e *Engine[V]) E() EdgeSet[V] {
	if e.cfg.BlockGraph != nil {
		return blockEdges[V]{}
	}
	return BaseE[V]()
}

// topo returns the adjacency source partition construction reads: the block
// graph when the engine is out-of-core, else the in-memory CSR.
func (e *Engine[V]) topo() partition.Adjacency {
	if e.cfg.BlockGraph != nil {
		return e.cfg.BlockGraph
	}
	return e.g
}

// beginDenseBlocks switches the worker's cache to dense accounting: the pull
// kernel is about to stream every block its masters' in-edges live in.
func (w *worker[V]) beginDenseBlocks() {
	if w.bcache != nil {
		w.bcache.BeginDense()
	}
}

// planSparseBlocks builds the per-block frontier-residency bitmap for a
// sparse superstep — the blocks (both directions) containing at least one
// active source — and installs it as the cache's plan. With the physical base
// edge set every push-phase read is in the plan by construction (each active
// source's out-block is marked); the cache's Unplanned counter asserts this.
// Derived and virtual edge sets may read beyond the plan (e.g. a two-hop join
// reading another source's block), which is counted, not an error.
//
//flash:hotpath
func (w *worker[V]) planSparseBlocks(membership *bitset.Bitset) {
	if w.bcache == nil {
		return
	}
	bg := w.eng.cfg.BlockGraph
	place := w.eng.place
	w.resOut.Reset()
	w.resIn.Reset()
	membership.Range(func(l int) bool {
		gid := place.GlobalID(w.id, l)
		w.resOut.Set(bg.OutBlockOf(gid))
		w.resIn.Set(bg.InBlockOf(gid))
		return true
	})
	w.bcache.BeginSparse(w.resOut, w.resIn)
}

// flushBlockStats drains the cache's counter delta into the worker's
// counters; parallelWorkers folds them into the engine's at the superstep
// barrier, so RunResult and the bench suite see per-step-accurate totals.
func (w *worker[V]) flushBlockStats() {
	if w.bcache == nil {
		return
	}
	d := w.bcache.TakeDelta()
	w.met.BlockHits += d.Hits
	w.met.BlockMisses += d.Misses
	w.met.BlockEvictions += d.Evictions
	w.met.BlockBytesDense += d.BytesDense
	w.met.BlockBytesSparse += d.BytesSparse
}
