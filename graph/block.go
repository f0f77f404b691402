// FLASHBLK: the block-oriented on-disk edge backend.
//
// A Graph keeps the whole CSR resident, so every engine run is bounded by
// heap size, not by the algorithm. Following M-Flash's block processing model
// and FlashGraph's SSD-backed adjacency lists, a BlockGraph keeps only the
// O(|V|) degree/offset arrays and a small block index in memory; the
// adjacency itself lives in fixed-target-size compressed blocks on disk,
// varint-delta encoded (the KV frame codec's discipline applied to edges) and
// individually CRC-protected, so a worker reads exactly the blocks a
// superstep touches.
//
// File layout (little-endian), same header/checksum/atomic-rename discipline
// as the FLASHCKP checkpoint store:
//
//	magic     [8]byte "FLASHBLK"
//	version   u16 (currently 1)
//	flags     u16 (bit0 weighted, bit1 directed)
//	blockSize u32 (target encoded block size the writer used)
//	n, m      u64
//	nameLen   u32
//	degOutLen u32 | degOutCRC u32
//	degInLen  u32 | degInCRC u32   (directed only; 0 otherwise)
//	nOut      u32 | nIn u32
//	reserved  u32
//	payloadLen u64
//	name bytes, degOut bytes, degIn bytes
//	out table: nOut × (first u32 | nv u32 | edges u32 | off u64 | encLen u32 | crc u32), then table CRC u32
//	in  table: likewise
//	padding to 64
//	payload: blocks, each 64-byte aligned (mmap/pread friendly), offsets
//	         relative to the payload start
//
// Every vertex's adjacency lives entirely inside one block (a vertex whose
// list exceeds the target size gets an oversize block of its own), so one
// block read answers any Out(u)/In(v) query. Degree sections are uvarint
// streams; block payloads encode each vertex's sorted neighbor list as an
// absolute uvarint followed by uvarint gaps, then the raw float32 weights
// when the graph is weighted. An undirected graph stores only the out
// direction — its in-adjacency is identical by symmetry — halving the file
// and letting one cached block serve both kernels.
//
// The decoder validates everything before trusting it: magic, version, flag
// bits, section lengths against the file size, degree sums against m, block
// tables for contiguous vertex coverage and offset bounds, and a CRC32-C
// (Castagnoli) per block at read time. A truncated, bit-flipped, or hostile
// file fails loudly instead of decoding garbage topology.
//
// A read block stays in its encoded form. Reading it builds a row index
// (the byte offset of each vertex's row) and checks framing in one pass; the
// first load of each block also walks every row, checking every vid < n,
// before any row is served. Rows then decode lazily in Block.Each, so a
// kernel that stops after its first neighbour decodes one gap, not a block.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
)

// Block directions for BlockGraph.ReadBlock and BlockCache.Get.
const (
	BlockOut = 0
	BlockIn  = 1
)

// DefaultBlockSize is the writer's default target encoded block size.
const DefaultBlockSize = 64 << 10

const (
	blkMagic     = "FLASHBLK"
	blkVersion   = 1
	blkHdrSize   = 72
	blkAlign     = 64
	blkEntrySize = 28
	blkFlagW     = 1 << 0
	blkFlagDir   = 1 << 1
	blkMaxName   = 1 << 16
	blkMaxBlocks = 1 << 24
	blkMaxEnc    = 1 << 30
)

var blkCRCTable = crc32.MakeTable(crc32.Castagnoli)

// blockMeta is one decoded block-table entry: the contiguous vertex range the
// block covers, its edge count, and where its encoded bytes live.
type blockMeta struct {
	first  VID
	nv     uint32
	edges  uint32
	off    uint64 // payload-relative, blkAlign-aligned
	encLen uint32
	crc    uint32
}

// Block is one resident FLASHBLK block: its CRC-verified encoded payload and
// a row index, the unit the block cache holds. Nothing is expanded up front;
// Each decodes a vertex's gaps (and reads its trailing weights) as it yields
// them, so a kernel that stops early pays only for the neighbours it saw.
type Block struct {
	first    VID
	n        uint64   // vid bound: every neighbour id is < n
	weighted bool     // each row's gaps are followed by 4 bytes per weight
	off      []int64  // global degree offsets of rows first..first+nv (aliases the BlockGraph's)
	rows     []uint32 // rows[i] is the payload offset of vertex first+i's row (len nv+1)
	data     []byte   // the CRC-verified encoded payload
}

// First returns the first vertex the block covers.
func (b *Block) First() VID { return b.first }

// Contains reports whether v's adjacency lives in this block.
func (b *Block) Contains(v VID) bool {
	return v >= b.first && int(v-b.first) < len(b.rows)-1
}

// Each decodes v's row in ascending neighbour order, calling yield with each
// neighbour and its weight (0 when unweighted) until yield returns false. v
// must be inside the block. Every decoded id is range-checked; a row naming
// a vertex outside the graph returns an error wrapping a *VIDRangeError.
//
//flash:hotpath
func (b *Block) Each(v VID, yield func(VID, float32) bool) error {
	i := int(v - b.first)
	deg := int(b.off[i+1] - b.off[i])
	p, wp := int(b.rows[i]), int(b.rows[i+1])
	weighted, n := b.weighted, b.n
	if weighted {
		wp -= 4 * deg
	}
	gaps, ws := b.data[:wp], b.data[wp:]
	var prev uint64
	for k := 0; k < deg; k++ {
		// One- and two-byte gaps dominate sorted adjacency; longer ones take
		// the library decoder, which also rejects overlong encodings.
		x := uint64(gaps[p])
		p++
		if x >= 0x80 {
			if y := uint64(gaps[p]); y < 0x80 {
				x = x&0x7f | y<<7
				p++
			} else {
				var sz int
				if x, sz = binary.Uvarint(gaps[p-1:]); sz <= 0 {
					return fmt.Errorf("graph: block row of vertex %d has a malformed uvarint", v)
				}
				p += sz - 1
			}
		}
		prev += x // the first value is absolute, the rest are gaps
		if prev >= n {
			return fmt.Errorf("graph: block row of vertex %d: %w", v, &VIDRangeError{Vertex: v, VID: prev, N: n})
		}
		var w float32
		if weighted {
			w = math.Float32frombits(binary.LittleEndian.Uint32(ws[4*k:]))
		}
		if !yield(VID(prev), w) {
			return nil
		}
	}
	return nil
}

// Bytes returns the block's resident footprint, the unit of cache
// accounting: the encoded payload plus its row index.
func (b *Block) Bytes() int64 {
	return int64(cap(b.data)) + int64(cap(b.rows))*4 + 64
}

// VIDRangeError reports a block row naming a neighbour outside [0, N). The
// block passed its CRC, so the file was written wrong or is hostile.
type VIDRangeError struct {
	Vertex VID    // the row's vertex
	VID    uint64 // the decoded neighbour id
	N      uint64 // the graph's vertex count
}

func (e *VIDRangeError) Error() string {
	return fmt.Sprintf("vid %d out of range [0, %d)", e.VID, e.N)
}

// BlockGraph is an out-of-core graph: the topology skeleton (degrees and
// offsets) in memory, the adjacency in FLASHBLK blocks behind an io.ReaderAt.
// Block reads are safe for concurrent use; the sequential-scan accessors
// (OutNeighbors/InNeighbors) serialize on an internal one-block MRU and exist
// for whole-graph passes such as partition construction.
type BlockGraph struct {
	r      io.ReaderAt
	closer io.Closer // nil for in-memory readers

	n, m      int
	directed  bool
	weighted  bool
	name      string
	blockSize int

	outOff, inOff []int64 // inOff aliases outOff when undirected
	blocks        [2][]blockMeta
	payloadStart  int64

	// checked[d][i] is set once block i of stored direction d has passed
	// the full validating walk; later loads re-check CRC and framing only.
	checked [2][]atomic.Bool

	mu   sync.Mutex
	skel *Graph
	seq  [2]seqScan // per-direction MRU for sequential scans
}

// seqScan is one direction's sequential-scan state: the most recently read
// block, the append-only chunk the scan decodes rows into, and the last row
// served (an undirected graph's in-query for v follows its out-query for v
// and reads the same row).
type seqScan struct {
	blk  *Block
	buf  []VID
	last int // vertex of row, or -1
	row  []VID
}

// seqChunk is the size in ids of a sequential-scan decode chunk.
const seqChunk = 4 << 10

// NumVertices returns |V|.
func (bg *BlockGraph) NumVertices() int { return bg.n }

// NumEdges returns the number of stored directed edges (undirected edges
// count twice, matching Graph.NumEdges).
func (bg *BlockGraph) NumEdges() int { return bg.m }

// Directed reports whether the graph was built as directed.
func (bg *BlockGraph) Directed() bool { return bg.directed }

// Weighted reports whether edge weights are stored.
func (bg *BlockGraph) Weighted() bool { return bg.weighted }

// Name returns the dataset name recorded at write time.
func (bg *BlockGraph) Name() string { return bg.name }

// mapDir folds the logical direction onto the stored one: an undirected
// graph stores only out-blocks and serves in-queries from them by symmetry.
func (bg *BlockGraph) mapDir(dir int) int {
	if !bg.directed {
		return BlockOut
	}
	return dir
}

// NumBlocks returns the number of blocks serving the given direction.
func (bg *BlockGraph) NumBlocks(dir int) int { return len(bg.blocks[bg.mapDir(dir)]) }

// blockOf locates the block covering v in the (mapped) direction by binary
// search over the contiguous first-vertex ranges.
//
//flash:hotpath
func (bg *BlockGraph) blockOf(d int, v VID) int {
	ms := bg.blocks[d]
	lo, hi := 0, len(ms)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ms[mid].first <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// OutBlockOf returns the index of the block holding u's out-adjacency.
//
//flash:hotpath
func (bg *BlockGraph) OutBlockOf(u VID) int { return bg.blockOf(BlockOut, u) }

// InBlockOf returns the index of the block holding v's in-adjacency.
//
//flash:hotpath
func (bg *BlockGraph) InBlockOf(v VID) int { return bg.blockOf(bg.mapDir(BlockIn), v) }

// dirOff returns the stored direction's offset array.
func (bg *BlockGraph) dirOff(d int) []int64 {
	if d == BlockOut {
		return bg.outOff
	}
	return bg.inOff
}

// ReadBlock reads one block, verifies its CRC and indexes its rows. The
// first successful load of each block also walks every row in full (framing,
// every vid < n) before the block is handed out; a later load of the same
// block, after an eviction, re-checks its CRC and framing. Every call
// allocates a fresh Block; callers wanting reuse go through a BlockCache.
func (bg *BlockGraph) ReadBlock(dir, idx int) (*Block, error) {
	d := bg.mapDir(dir)
	if idx < 0 || idx >= len(bg.blocks[d]) {
		return nil, fmt.Errorf("graph: block %d/%d out of range", d, idx)
	}
	mt := bg.blocks[d][idx]
	buf := make([]byte, mt.encLen)
	if _, err := bg.r.ReadAt(buf, bg.payloadStart+int64(mt.off)); err != nil {
		return nil, fmt.Errorf("graph: block %d/%d read: %w", d, idx, err)
	}
	if crc32.Checksum(buf, blkCRCTable) != mt.crc {
		return nil, fmt.Errorf("graph: block %d/%d crc mismatch", d, idx)
	}
	b, err := bg.indexBlock(d, mt, buf)
	if err != nil {
		return nil, fmt.Errorf("graph: block %d/%d: %w", d, idx, err)
	}
	if flag := &bg.checked[d][idx]; !flag.Load() {
		for v := b.first; b.Contains(v); v++ {
			if err := b.Each(v, keepGoing); err != nil {
				return nil, fmt.Errorf("graph: block %d/%d: %w", d, idx, err)
			}
		}
		flag.Store(true)
	}
	return b, nil
}

// keepGoing is the yield of the first-load validating walk.
func keepGoing(VID, float32) bool { return true }

// indexBlock checks a verified payload's framing and builds its row index in
// one word-at-a-time pass. A row is its degree's count of uvarints, each
// ending in a byte with the high bit clear, then 4 weight bytes per
// neighbour when weighted; the rows must fill the payload exactly.
func (bg *BlockGraph) indexBlock(d int, mt blockMeta, data []byte) (*Block, error) {
	off := bg.dirOff(d)[mt.first : int(mt.first)+int(mt.nv)+1]
	rows := make([]uint32, mt.nv+1)
	pos := 0
	for i := 0; i < int(mt.nv); i++ {
		rows[i] = uint32(pos)
		deg := int(off[i+1] - off[i])
		var ok bool
		if pos, ok = skipUvarints(data, pos, deg); !ok {
			return nil, fmt.Errorf("block truncated decoding vertex %d", int(mt.first)+i)
		}
		if bg.weighted {
			if len(data)-pos < 4*deg {
				return nil, fmt.Errorf("block truncated in weights of vertex %d", int(mt.first)+i)
			}
			pos += 4 * deg
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes in block", len(data)-pos)
	}
	rows[mt.nv] = uint32(pos)
	return &Block{
		first:    mt.first,
		n:        uint64(bg.n),
		weighted: bg.weighted,
		off:      off,
		rows:     rows,
		data:     data,
	}, nil
}

// skipUvarints returns the offset just past the k-th uvarint starting at
// pos, or false if data ends first. It counts terminator bytes eight at a
// time: in a little-endian word, the bytes with the high bit clear are the
// set bits of ^w & 0x80...80.
func skipUvarints(data []byte, pos, k int) (int, bool) {
	for k > 0 && len(data)-pos >= 8 {
		t := ^binary.LittleEndian.Uint64(data[pos:]) & 0x8080808080808080
		if c := bits.OnesCount64(t); c < k {
			k -= c
			pos += 8
			continue
		}
		for ; k > 1; k-- {
			t &= t - 1
		}
		return pos + bits.TrailingZeros64(t)>>3 + 1, true
	}
	for ; k > 0 && pos < len(data); pos++ {
		if data[pos] < 0x80 {
			k--
		}
	}
	return pos, k == 0
}

// seqAdj serves the sequential-scan accessors through a one-block-per-
// direction MRU: an ascending-vertex pass (partition construction, stats)
// reads each block exactly once. Rows decode into an append-only chunk that
// is replaced, never overwritten, when full, so a returned slice stays intact
// while concurrent scans proceed; callers still must not retain it. I/O or
// corruption errors panic — these accessors mirror Graph's infallible
// signatures and a block file that fails mid-scan is unusable anyway.
//
//flash:blockowner the MRU slot is the sanctioned one-block residency
func (bg *BlockGraph) seqAdj(dir int, v VID) []VID {
	d := bg.mapDir(dir)
	bg.mu.Lock()
	defer bg.mu.Unlock()
	s := &bg.seq[d]
	if s.last == int(v) {
		return s.row
	}
	if s.blk == nil || !s.blk.Contains(v) {
		b, err := bg.ReadBlock(d, bg.blockOf(d, v))
		if err != nil {
			panic(fmt.Errorf("graph: block scan: %w", err))
		}
		s.blk = b
	}
	off := bg.dirOff(d)
	if deg := int(off[v+1] - off[v]); cap(s.buf)-len(s.buf) < deg {
		s.buf = make([]VID, 0, max(deg, seqChunk))
	}
	start := len(s.buf)
	if err := s.blk.Each(v, func(u VID, _ float32) bool {
		s.buf = append(s.buf, u)
		return true
	}); err != nil {
		panic(fmt.Errorf("graph: block scan: %w", err))
	}
	s.last, s.row = int(v), s.buf[start:len(s.buf):len(s.buf)]
	return s.row
}

// OutNeighbors returns u's out-neighbors via the sequential-scan MRU. It
// implements the partitioner's adjacency interface; engine hot paths use a
// BlockCache instead.
func (bg *BlockGraph) OutNeighbors(u VID) []VID { return bg.seqAdj(BlockOut, u) }

// InNeighbors returns v's in-neighbors via the sequential-scan MRU.
func (bg *BlockGraph) InNeighbors(v VID) []VID { return bg.seqAdj(BlockIn, v) }

// Skeleton returns the in-memory topology skeleton: a *Graph with real
// degrees and offsets but no adjacency arrays. Engines run over the skeleton
// (degree hints, density rule, subset sizing all work unchanged) while edge
// iteration goes through the block backend; touching the skeleton's
// adjacency directly panics with a descriptive message. The same pointer is
// returned on every call, so engine configuration can verify identity.
func (bg *BlockGraph) Skeleton() *Graph {
	bg.mu.Lock()
	defer bg.mu.Unlock()
	if bg.skel == nil {
		bg.skel = &Graph{
			n:           bg.n,
			m:           bg.m,
			outOff:      bg.outOff,
			inOff:       bg.inOff,
			directed:    bg.directed,
			name:        bg.name,
			oocWeighted: bg.weighted,
		}
	}
	return bg.skel
}

// EdgeBytes returns the total decoded adjacency payload the file represents:
// the bytes a full in-memory CSR of the stored directions would hold. Cache
// budgets are naturally expressed as a fraction of this.
func (bg *BlockGraph) EdgeBytes() uint64 {
	per := uint64(4)
	if bg.weighted {
		per += 4
	}
	dirs := uint64(1)
	if bg.directed {
		dirs = 2
	}
	return uint64(bg.m) * per * dirs
}

// IndexBytes returns the resident footprint of the in-memory index: offset
// arrays, block tables and first-load flags. Together with a cache budget
// this is what an out-of-core graph costs in RAM.
func (bg *BlockGraph) IndexBytes() uint64 {
	total := uint64(cap(bg.outOff)) * 8
	if bg.directed {
		total += uint64(cap(bg.inOff)) * 8
	}
	for d := range bg.blocks {
		total += uint64(cap(bg.blocks[d]))*blkEntrySize + uint64(len(bg.checked[d]))*4
	}
	return total
}

// Close releases the underlying file (no-op for in-memory readers).
func (bg *BlockGraph) Close() error {
	if bg.closer != nil {
		return bg.closer.Close()
	}
	return nil
}

// ---- writer ----

// appendVertexAdj appends one vertex's sorted adjacency as an absolute
// uvarint plus uvarint gaps, then its raw little-endian float32 weights.
func appendVertexAdj(buf []byte, adj []VID, ws []float32) []byte {
	prev := VID(0)
	for i, d := range adj {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(d))
		} else {
			buf = binary.AppendUvarint(buf, uint64(d-prev))
		}
		prev = d
	}
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w))
	}
	return buf
}

// padTo zero-pads buf to the next multiple of align.
func padTo(buf []byte, align int) []byte {
	for len(buf)%align != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// packBlocks greedily packs vertices 0..n-1 into blocks of at least target
// encoded bytes (except the last), returning the table entries and the
// payload extended with the new, 64-byte-aligned blocks. A single vertex
// whose list exceeds the target gets an oversize block of its own; every
// vertex's adjacency stays within one block.
//
//flash:deterministic
func packBlocks(n, target int, payload []byte, adjOf func(VID) []VID, wOf func(VID) []float32) ([]blockMeta, []byte) {
	var metas []blockMeta
	if n == 0 {
		return metas, payload
	}
	payload = padTo(payload, blkAlign)
	start, first, edges := len(payload), 0, 0
	seal := func(next int) {
		enc := payload[start:]
		metas = append(metas, blockMeta{
			first:  VID(first),
			nv:     uint32(next - first),
			edges:  uint32(edges),
			off:    uint64(start),
			encLen: uint32(len(enc)),
			crc:    crc32.Checksum(enc, blkCRCTable),
		})
	}
	for v := 0; v < n; v++ {
		if len(payload)-start >= target && v > first {
			seal(v)
			payload = padTo(payload, blkAlign)
			start, first, edges = len(payload), v, 0
		}
		adj := adjOf(VID(v))
		payload = appendVertexAdj(payload, adj, wOf(VID(v)))
		edges += len(adj)
	}
	seal(n)
	return metas, payload
}

// appendDegrees appends n uvarint degrees derived from an offset array.
func appendDegrees(buf []byte, off []int64, n int) []byte {
	for v := 0; v < n; v++ {
		buf = binary.AppendUvarint(buf, uint64(off[v+1]-off[v]))
	}
	return buf
}

func appendBlockTable(buf []byte, metas []blockMeta) []byte {
	start := len(buf)
	for _, mt := range metas {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mt.first))
		buf = binary.LittleEndian.AppendUint32(buf, mt.nv)
		buf = binary.LittleEndian.AppendUint32(buf, mt.edges)
		buf = binary.LittleEndian.AppendUint64(buf, mt.off)
		buf = binary.LittleEndian.AppendUint32(buf, mt.encLen)
		buf = binary.LittleEndian.AppendUint32(buf, mt.crc)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], blkCRCTable))
}

// EncodeBlockFile serializes g into the FLASHBLK format with the given
// target block size (<= 0 selects DefaultBlockSize).
//
//flash:deterministic
func EncodeBlockFile(g *Graph, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	name := g.name
	if len(name) >= blkMaxName {
		name = name[:blkMaxName-1]
	}

	var payload []byte
	outMetas, payload := packBlocks(g.n, blockSize, payload,
		func(u VID) []VID { return g.OutNeighbors(u) },
		func(u VID) []float32 { return g.OutWeights(u) })
	var inMetas []blockMeta
	if g.directed {
		inMetas, payload = packBlocks(g.n, blockSize, payload,
			func(v VID) []VID { return g.InNeighbors(v) },
			func(v VID) []float32 { return g.InWeights(v) })
	}
	payload = padTo(payload, blkAlign)

	var meta []byte
	meta = append(meta, name...)
	degStart := len(meta)
	meta = appendDegrees(meta, g.outOff, g.n)
	degOut := meta[degStart:]
	degOutLen, degOutCRC := uint32(len(degOut)), crc32.Checksum(degOut, blkCRCTable)
	degStart = len(meta)
	if g.directed {
		meta = appendDegrees(meta, g.inOff, g.n)
	}
	degIn := meta[degStart:]
	degInLen, degInCRC := uint32(len(degIn)), crc32.Checksum(degIn, blkCRCTable)
	meta = appendBlockTable(meta, outMetas)
	meta = appendBlockTable(meta, inMetas)

	var flags uint16
	if g.Weighted() {
		flags |= blkFlagW
	}
	if g.directed {
		flags |= blkFlagDir
	}
	hdr := make([]byte, 0, blkHdrSize)
	hdr = append(hdr, blkMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, blkVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.m))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(name)))
	hdr = binary.LittleEndian.AppendUint32(hdr, degOutLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, degOutCRC)
	hdr = binary.LittleEndian.AppendUint32(hdr, degInLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, degInCRC)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(outMetas)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(inMetas)))
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // reserved
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))

	file := append(hdr, meta...)
	file = padTo(file, blkAlign)
	return append(file, payload...)
}

// WriteBlockFile encodes g and writes it atomically: temp file in the target
// directory, sync, rename — a crash mid-write never leaves a torn file
// visible (the FLASHCKP FileStore discipline).
func WriteBlockFile(g *Graph, path string, blockSize int) error {
	buf := EncodeBlockFile(g, blockSize)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("graph: block file write: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("graph: block file write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("graph: block file write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: block file write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: block file write: %w", err)
	}
	return nil
}

// ---- reader ----

// IsBlockFile reports whether the file at path starts with the FLASHBLK
// magic (catalog loaders use it to dispatch between edge lists and block
// graphs).
func IsBlockFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == blkMagic
}

// OpenBlockFile opens and validates a FLASHBLK file. The returned BlockGraph
// holds the file open until Close.
func OpenBlockFile(path string) (*BlockGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: block file open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: block file open: %w", err)
	}
	bg, err := OpenBlockReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	bg.closer = f
	return bg, nil
}

// decodeDegreeOffsets turns a uvarint degree section into a prefix-sum
// offset array, validating the exact byte budget and the edge-count sum.
func decodeDegreeOffsets(data []byte, n int, m uint64, what string) ([]int64, error) {
	off := make([]int64, n+1)
	pos := 0
	var sum uint64
	for v := 0; v < n; v++ {
		d, sz := binary.Uvarint(data[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("graph: block file %s degrees truncated at vertex %d", what, v)
		}
		pos += sz
		sum += d
		if sum > m {
			return nil, fmt.Errorf("graph: block file %s degrees exceed edge count", what)
		}
		off[v+1] = off[v] + int64(d)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("graph: %d trailing bytes in block file %s degrees", len(data)-pos, what)
	}
	if sum != m {
		return nil, fmt.Errorf("graph: block file %s degrees sum to %d, header says %d", what, sum, m)
	}
	return off, nil
}

// decodeBlockTable parses and validates one direction's block table: CRC,
// contiguous vertex coverage, edge counts consistent with the offsets, and
// aligned in-bounds payload ranges.
func decodeBlockTable(data []byte, nb, n int, off []int64, payloadLen uint64, what string) ([]blockMeta, error) {
	if crc32.Checksum(data[:nb*blkEntrySize], blkCRCTable) != binary.LittleEndian.Uint32(data[nb*blkEntrySize:]) {
		return nil, fmt.Errorf("graph: block file %s table crc mismatch", what)
	}
	metas := make([]blockMeta, nb)
	next := VID(0)
	prevEnd := uint64(0)
	for i := 0; i < nb; i++ {
		e := data[i*blkEntrySize:]
		mt := blockMeta{
			first:  VID(binary.LittleEndian.Uint32(e)),
			nv:     binary.LittleEndian.Uint32(e[4:]),
			edges:  binary.LittleEndian.Uint32(e[8:]),
			off:    binary.LittleEndian.Uint64(e[12:]),
			encLen: binary.LittleEndian.Uint32(e[20:]),
			crc:    binary.LittleEndian.Uint32(e[24:]),
		}
		if mt.first != next || mt.nv == 0 || uint64(mt.first)+uint64(mt.nv) > uint64(n) {
			return nil, fmt.Errorf("graph: block file %s table entry %d breaks vertex coverage", what, i)
		}
		next = mt.first + VID(mt.nv)
		if span := off[int(mt.first)+int(mt.nv)] - off[mt.first]; span != int64(mt.edges) {
			return nil, fmt.Errorf("graph: block file %s table entry %d edge count %d != offset span %d", what, i, mt.edges, span)
		}
		if mt.off%blkAlign != 0 || mt.off < prevEnd || mt.encLen > blkMaxEnc ||
			mt.off+uint64(mt.encLen) > payloadLen {
			return nil, fmt.Errorf("graph: block file %s table entry %d has bad payload range", what, i)
		}
		prevEnd = mt.off + uint64(mt.encLen)
		metas[i] = mt
	}
	if int(next) != n {
		return nil, fmt.Errorf("graph: block file %s table covers %d of %d vertices", what, next, n)
	}
	return metas, nil
}

// OpenBlockReader validates a FLASHBLK image behind any io.ReaderAt (a file,
// or bytes for tests and the fuzz target). Only the header, degree sections,
// and block tables are read eagerly; block payloads are verified against
// their CRCs lazily at ReadBlock time.
func OpenBlockReader(r io.ReaderAt, size int64) (*BlockGraph, error) {
	if size < blkHdrSize {
		return nil, fmt.Errorf("graph: block file truncated: %d bytes", size)
	}
	hdr := make([]byte, blkHdrSize)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("graph: block file header: %w", err)
	}
	if string(hdr[:8]) != blkMagic {
		return nil, fmt.Errorf("graph: not a block file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != blkVersion {
		return nil, fmt.Errorf("graph: unsupported block file version %d (want %d)", v, blkVersion)
	}
	flags := binary.LittleEndian.Uint16(hdr[10:])
	if flags&^uint16(blkFlagW|blkFlagDir) != 0 {
		return nil, fmt.Errorf("graph: unknown block file flags %#x", flags)
	}
	blockSize := binary.LittleEndian.Uint32(hdr[12:])
	n64 := binary.LittleEndian.Uint64(hdr[16:])
	m64 := binary.LittleEndian.Uint64(hdr[24:])
	nameLen := binary.LittleEndian.Uint32(hdr[32:])
	degOutLen := binary.LittleEndian.Uint32(hdr[36:])
	degOutCRC := binary.LittleEndian.Uint32(hdr[40:])
	degInLen := binary.LittleEndian.Uint32(hdr[44:])
	degInCRC := binary.LittleEndian.Uint32(hdr[48:])
	nOut := binary.LittleEndian.Uint32(hdr[52:])
	nIn := binary.LittleEndian.Uint32(hdr[56:])
	payloadLen := binary.LittleEndian.Uint64(hdr[64:])

	directed := flags&blkFlagDir != 0
	weighted := flags&blkFlagW != 0
	if n64 > uint64(size) || (n64 > 0 && n64 > uint64(degOutLen)) {
		// Each vertex's degree costs at least one uvarint byte, so a header
		// claiming more vertices than degree bytes is hostile or corrupt.
		return nil, fmt.Errorf("graph: block file vertex count %d inconsistent with degree section", n64)
	}
	if m64 > payloadLen || payloadLen > uint64(size) {
		return nil, fmt.Errorf("graph: block file edge count %d inconsistent with payload", m64)
	}
	n, m := int(n64), int(m64)
	if nameLen >= blkMaxName || nOut > blkMaxBlocks || nIn > blkMaxBlocks ||
		int(nOut) > n+1 || int(nIn) > n+1 {
		return nil, fmt.Errorf("graph: block file header out of bounds")
	}
	if !directed && (degInLen != 0 || nIn != 0) {
		return nil, fmt.Errorf("graph: undirected block file carries an in direction")
	}
	if directed && n > 0 && n64 > uint64(degInLen) {
		return nil, fmt.Errorf("graph: block file in-degree section too short")
	}
	if (n > 0) != (nOut > 0) || (directed && (n > 0) != (nIn > 0)) {
		return nil, fmt.Errorf("graph: block file block count inconsistent with vertex count")
	}

	metaLen := int64(nameLen) + int64(degOutLen) + int64(degInLen) +
		int64(nOut)*blkEntrySize + 4 + int64(nIn)*blkEntrySize + 4
	payloadStart := (blkHdrSize + metaLen + blkAlign - 1) / blkAlign * blkAlign
	if payloadStart+int64(payloadLen) != size {
		return nil, fmt.Errorf("graph: block file size %d, want %d meta + %d payload",
			size, payloadStart, payloadLen)
	}
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, blkHdrSize); err != nil {
		return nil, fmt.Errorf("graph: block file metadata: %w", err)
	}
	name := string(meta[:nameLen])
	meta = meta[nameLen:]
	degOut := meta[:degOutLen]
	meta = meta[degOutLen:]
	degIn := meta[:degInLen]
	meta = meta[degInLen:]
	if crc32.Checksum(degOut, blkCRCTable) != degOutCRC {
		return nil, fmt.Errorf("graph: block file out-degree crc mismatch")
	}
	if crc32.Checksum(degIn, blkCRCTable) != degInCRC {
		return nil, fmt.Errorf("graph: block file in-degree crc mismatch")
	}
	outOff, err := decodeDegreeOffsets(degOut, n, m64, "out")
	if err != nil {
		return nil, err
	}
	inOff := outOff
	if directed {
		if inOff, err = decodeDegreeOffsets(degIn, n, m64, "in"); err != nil {
			return nil, err
		}
	}
	outTable := meta[:int(nOut)*blkEntrySize+4]
	inTable := meta[int(nOut)*blkEntrySize+4:]
	outMetas, err := decodeBlockTable(outTable, int(nOut), n, outOff, payloadLen, "out")
	if err != nil {
		return nil, err
	}
	var inMetas []blockMeta
	if directed {
		if inMetas, err = decodeBlockTable(inTable, int(nIn), n, inOff, payloadLen, "in"); err != nil {
			return nil, err
		}
	}
	bg := &BlockGraph{
		r:            r,
		n:            n,
		m:            m,
		directed:     directed,
		weighted:     weighted,
		name:         name,
		blockSize:    int(blockSize),
		outOff:       outOff,
		inOff:        inOff,
		blocks:       [2][]blockMeta{outMetas, inMetas},
		payloadStart: payloadStart,
	}
	bg.seq[BlockOut].last, bg.seq[BlockIn].last = -1, -1
	bg.checked[BlockOut] = make([]atomic.Bool, len(outMetas))
	bg.checked[BlockIn] = make([]atomic.Bool, len(inMetas))
	return bg, nil
}
