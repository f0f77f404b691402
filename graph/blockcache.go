package graph

import (
	"sync"

	"flash/internal/bitset"
)

// BlockCacheStats is a snapshot of cache activity counters.
type BlockCacheStats struct {
	Hits      uint64 // Get served from a resident block
	Misses    uint64 // Get that read and indexed a block from disk
	Evictions uint64 // blocks dropped to stay under the byte budget

	// Encoded bytes read from disk, split by the scheduling mode the cache
	// was in when the miss happened.
	BytesDense  uint64
	BytesSparse uint64

	// Unplanned counts sparse-mode misses on blocks outside the residency
	// plan. The physical base edge set never produces these (every pushed
	// source was planned); virtual edge sets composed with joins may.
	Unplanned uint64
}

func (s *BlockCacheStats) add(o BlockCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesDense += o.BytesDense
	s.BytesSparse += o.BytesSparse
	s.Unplanned += o.Unplanned
}

func (s BlockCacheStats) sub(o BlockCacheStats) BlockCacheStats {
	return BlockCacheStats{
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Evictions:   s.Evictions - o.Evictions,
		BytesDense:  s.BytesDense - o.BytesDense,
		BytesSparse: s.BytesSparse - o.BytesSparse,
		Unplanned:   s.Unplanned - o.Unplanned,
	}
}

// cacheSlot is one (direction, block) residency slot.
type cacheSlot struct {
	blk *Block // nil when not resident
	ref bool   // clock reference bit
}

// clockRef names a resident slot on the clock ring.
type clockRef struct {
	dir uint32
	idx uint32
}

// BlockCache is a bounded cache of FLASHBLK blocks with clock (second-chance)
// eviction. Blocks stay resident in their encoded form and are charged their
// payload plus row-index bytes (Block.Bytes), so a budget holds roughly three
// times as many blocks as the same bytes of decoded adjacency would.
//
// One cache per worker keeps the hot path free of cross-worker contention;
// the internal mutex only arbitrates a worker's own threads' Get calls, so
// the per-edge iteration loop itself never takes a lock.
//
// The cache is bimodal, mirroring the engine's dense/sparse switch:
// BeginDense marks the superstep as a sequential stream of every block the
// worker's masters touch, BeginSparse installs the per-block
// frontier-residency bitmaps so only blocks containing active sources are
// expected — any other sparse read is counted as Unplanned.
type BlockCache struct {
	bg     *BlockGraph
	budget int64

	mu    sync.Mutex
	slots [2][]cacheSlot
	ring  []clockRef
	hand  int
	used  int64

	sparse bool
	plan   [2]*bitset.Bitset // residency plan by logical direction

	stats   BlockCacheStats
	drained BlockCacheStats // portion already handed out by TakeDelta
}

// NewBlockCache returns a cache over bg bounded by budget resident bytes.
// Residency is minimum-one-block, so Bytes can transiently exceed a budget
// smaller than a single block.
func NewBlockCache(bg *BlockGraph, budget int64) *BlockCache {
	if budget < 0 {
		budget = 0
	}
	c := &BlockCache{bg: bg, budget: budget}
	c.slots[BlockOut] = make([]cacheSlot, len(bg.blocks[BlockOut]))
	c.slots[BlockIn] = make([]cacheSlot, len(bg.blocks[BlockIn]))
	return c
}

// Budget returns the resident-byte budget.
func (c *BlockCache) Budget() int64 { return c.budget }

// Bytes returns the currently resident bytes.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// BeginDense switches accounting to dense mode: the superstep streams every
// block of the worker's partition sequentially.
func (c *BlockCache) BeginDense() {
	c.mu.Lock()
	c.sparse = false
	c.plan[BlockOut], c.plan[BlockIn] = nil, nil
	c.mu.Unlock()
}

// BeginSparse switches accounting to sparse mode with the given per-block
// frontier-residency plans (indexed by logical direction; either may be nil
// to accept all reads in that direction).
func (c *BlockCache) BeginSparse(planOut, planIn *bitset.Bitset) {
	c.mu.Lock()
	c.sparse = true
	c.plan[BlockOut], c.plan[BlockIn] = planOut, planIn
	c.mu.Unlock()
}

// Get returns block idx of the given logical direction, reading and indexing
// it (and evicting colder blocks) on a miss. The returned block stays valid
// for the caller even if it is evicted afterwards — eviction only drops the
// cache's reference.
//
//flash:hotpath
func (c *BlockCache) Get(dir, idx int) (*Block, error) {
	d := c.bg.mapDir(dir)
	c.mu.Lock()
	slot := &c.slots[d][idx]
	if slot.blk != nil {
		slot.ref = true
		c.stats.Hits++
		blk := slot.blk
		c.mu.Unlock()
		return blk, nil
	}
	c.accountMiss(dir, d, idx)
	c.mu.Unlock()

	blk, err := c.bg.ReadBlock(d, idx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if slot.blk == nil { // lost/won race only against this worker's own reentry
		c.insert(d, idx, blk)
	}
	c.mu.Unlock()
	return blk, nil
}

// accountMiss records a miss under c.mu: bytes by scheduling mode, and
// whether a sparse read was outside the residency plan.
func (c *BlockCache) accountMiss(dir, d, idx int) {
	c.stats.Misses++
	enc := uint64(c.bg.blocks[d][idx].encLen)
	if c.sparse {
		c.stats.BytesSparse += enc
		if p := c.plan[dir]; p != nil && !p.Test(idx) {
			c.stats.Unplanned++
		}
	} else {
		c.stats.BytesDense += enc
	}
}

// insert makes blk resident under c.mu, evicting via the clock hand until
// the budget holds. Residency is minimum-one-block: a block bigger than the
// whole budget evicts everything else and is cached alone — refusing to cache
// it would turn a sequential scan over such blocks into one disk read and
// index pass per *vertex* instead of per block.
//
//flash:blockowner the cache is the budget-bounded residency authority
func (c *BlockCache) insert(d, idx int, blk *Block) {
	sz := blk.Bytes()
	for c.used+sz > c.budget && len(c.ring) > 0 {
		c.evictOne()
	}
	c.slots[d][idx] = cacheSlot{blk: blk, ref: true}
	c.ring = append(c.ring, clockRef{dir: uint32(d), idx: uint32(idx)})
	c.used += sz
}

// evictOne advances the clock hand, granting second chances to referenced
// blocks, and drops the first unreferenced one.
func (c *BlockCache) evictOne() {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		r := c.ring[c.hand]
		slot := &c.slots[r.dir][r.idx]
		if slot.ref {
			slot.ref = false
			c.hand++
			continue
		}
		c.used -= slot.blk.Bytes()
		slot.blk = nil
		c.ring[c.hand] = c.ring[len(c.ring)-1]
		c.ring = c.ring[:len(c.ring)-1]
		c.stats.Evictions++
		return
	}
}

// Stats returns cumulative counters since the cache was created.
func (c *BlockCache) Stats() BlockCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// TakeDelta returns the counters accumulated since the previous TakeDelta,
// for flushing into a metrics collector once per superstep.
func (c *BlockCache) TakeDelta() BlockCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.stats.sub(c.drained)
	c.drained = c.stats
	return d
}
