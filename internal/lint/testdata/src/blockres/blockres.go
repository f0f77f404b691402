// Fixture for the blockres analyzer: a resident block is budgeted memory
// only while the cache holds it, and a block-scan row is valid only until
// the next scan call, so no alias of either may outlive the superstep scope
// that fetched it. Matched by type name (Block, BlockGraph, Adjacency), like
// the real graph.BlockGraph.ReadBlock result and partition.Adjacency.
package blockres

type VID uint32

// Block mirrors graph.Block: an encoded block whose rows decode lazily.
type Block struct {
	first VID
	data  []byte
}

// Each yields v's neighbours by value.
func (b *Block) Each(v VID, yield func(VID, float32) bool) error {
	for _, x := range b.data {
		if !yield(VID(x), 0) {
			break
		}
	}
	return nil
}

// BlockGraph mirrors graph.BlockGraph: its scan accessors hand out rows
// decoded into a chunk that is valid only until the next call.
type BlockGraph struct {
	blocks []*Block
	chunk  []VID
}

func (g *BlockGraph) ReadBlock(idx int) (*Block, error) { return g.blocks[idx], nil }

func (g *BlockGraph) OutNeighbors(v VID) []VID { return g.chunk }

func (g *BlockGraph) InNeighbors(v VID) []VID { return g.chunk }

// Adjacency mirrors partition.Adjacency, the interface the scan is reached
// through during partition construction.
type Adjacency interface {
	OutNeighbors(u VID) []VID
	InNeighbors(v VID) []VID
}

// Graph mirrors the in-memory CSR: its rows are immutable and may be kept.
type Graph struct{ adj [][]VID }

func (g *Graph) OutNeighbors(v VID) []VID { return g.adj[v] }

// head flows its argument's memory to its return value; callers see that
// through the dataflow summary, not the type.
func head(a []VID) []VID { return a[:1] }

// stashAdj retains its argument in package state.
func stashAdj(a []VID) { lastAdj = a }

// checksum only reads its argument; passing tainted memory is fine.
func checksum(a []VID) int { return len(a) }

var (
	lastAdj   []VID
	lastBlock *Block
)

var (
	shipCh  = make(chan []VID, 1)
	blockCh = make(chan *Block, 1)
)

type scan struct {
	keep []VID
	blk  *Block
}

func leaksRows(g *BlockGraph, a Adjacency, h *scan, v VID) {
	lastAdj = g.OutNeighbors(v)           // want `block memory stored in package state`
	h.keep = a.InNeighbors(v)             // want `block memory stored through h\.keep`
	shipCh <- g.InNeighbors(v)            // want `block memory sent on a channel`
	stashAdj(a.OutNeighbors(v))           // want `block memory passed to stashAdj, which retains its argument`
	_ = checksum(g.OutNeighbors(v))       // no diagnostic: the callee does not retain
	for _, u := range a.OutNeighbors(v) { // no diagnostic: iterated in scope
		_ = u
	}
}

func leaksBlocks(g *BlockGraph, h *scan) {
	blk, _ := g.ReadBlock(0)
	lastBlock = blk // want `block memory stored in package state`
	h.blk = blk     // want `block memory stored through h\.blk`
	blockCh <- blk  // want `block memory sent on a channel`
}

// The interprocedural case: the row crosses a call boundary before leaking,
// so only the summary (FlowsToRet) connects the scan to the sink.
func leaksViaCallee(a Adjacency, v VID) {
	r := head(a.OutNeighbors(v))
	lastAdj = r // want `block memory stored in package state`
}

func leaksCapture(g *BlockGraph, v VID) {
	blk, _ := g.ReadBlock(0)
	row := g.OutNeighbors(v)
	go func() { // want `block memory captured by go`
		_ = blk.Each(v, func(VID, float32) bool { return true })
	}()
	defer func() { // want `block memory captured by defer`
		_ = len(row)
	}()
}

// A goroutine that fetches its own block captures nothing.
func fetchesInGoroutine(g *BlockGraph, v VID) {
	go func() { // no diagnostic: the block is declared inside the literal
		blk, _ := g.ReadBlock(0)
		_ = blk.Each(v, func(VID, float32) bool { return true })
	}()
}

func returnsRow(a Adjacency, v VID) []VID {
	return a.OutNeighbors(v) // want `returning a block-scan row`
}

// Returning the *Block itself is sanctioned: the taint is carried by the
// type and re-attaches at every caller.
func returnsBlock(g *BlockGraph) *Block {
	blk, _ := g.ReadBlock(0)
	return blk
}

// Copying the row out severs the alias.
func copiesOut(g *BlockGraph, v VID) []VID {
	out := append([]VID(nil), g.OutNeighbors(v)...)
	return out // no diagnostic: fresh copy, not a scan row
}

// Values yielded by Each are copies: collecting them makes a fresh slice.
func collectsRow(g *BlockGraph, v VID) []VID {
	blk, _ := g.ReadBlock(0)
	var out []VID
	_ = blk.Each(v, func(u VID, _ float32) bool {
		out = append(out, u)
		return true
	})
	return out // no diagnostic: built from yielded values
}

// In-memory CSR rows are immutable and may be kept.
func keepsCSRRow(g *Graph, h *scan, v VID) {
	h.keep = g.OutNeighbors(v) // no diagnostic: not a block scan
}

// remember models the cache's own bookkeeping: the sanctioned residency
// owner may store blocks by design.
//
//flash:blockowner the cache is the budget-bounded residency authority
func (g *BlockGraph) remember(blk *Block) {
	g.blocks[0] = blk
}

func insertPath(g *BlockGraph) {
	blk, _ := g.ReadBlock(1)
	g.remember(blk) // no diagnostic: callee is //flash:blockowner
}
