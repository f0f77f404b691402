package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzSeedGraph is the small, weighted, multi-block graph the seed corpus
// images encode.
func fuzzSeedGraph(directed bool) *Graph {
	b := NewBuilder(24).Directed(directed).Weighted(true).Name("fuzz")
	for v := 0; v < 23; v++ {
		b.AddEdgeW(VID(v), VID(v+1), float32(v))
		b.AddEdgeW(VID(v), VID((v*5+2)%24), 0.5)
	}
	return b.Build()
}

// fuzzSeedImage builds the valid directed FLASHBLK image the seed corpus
// variants are derived from.
func fuzzSeedImage() []byte { return EncodeBlockFile(fuzzSeedGraph(true), 64) }

// undirectedSeedImage is the same graph undirected: one stored direction
// serves both kernels, so every run reads its blocks.
func undirectedSeedImage() []byte { return EncodeBlockFile(fuzzSeedGraph(false), 64) }

// fuzzOversizeImage packs a hub vertex whose adjacency exceeds the one-byte
// target block size, exercising the oversize single-vertex block path.
func fuzzOversizeImage() []byte {
	b := NewBuilder(64).Directed(true)
	for v := 1; v < 64; v++ {
		b.AddEdge(0, VID(v))
	}
	return EncodeBlockFile(b.Build(), 1)
}

// hostileVIDImage is undirectedSeedImage with the first gap of vertex 0's
// row patched so its vid lands at 128 >= n, and the block CRC and the
// out-table CRC recomputed to match: a block that is hostile but
// CRC-consistent, which only the vid range check can reject.
func hostileVIDImage() []byte {
	img := undirectedSeedImage()
	bg, err := OpenBlockReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		panic(err)
	}
	mt := bg.blocks[BlockOut][0]
	if mt.first != 0 || bg.outOff[1] < 2 || bg.n >= 0x7f {
		panic("hostileVIDImage: seed image no longer has a one-byte gap at vertex 0")
	}
	// Vertex 0's row opens the block: a one-byte absolute id, then a
	// one-byte gap (ids are < n < 128).
	block := img[bg.payloadStart+int64(mt.off):][:mt.encLen]
	block[1] = 0x7f
	hdr := img[:blkHdrSize]
	tab := blkHdrSize + int(binary.LittleEndian.Uint32(hdr[32:])+
		binary.LittleEndian.Uint32(hdr[36:])+binary.LittleEndian.Uint32(hdr[44:]))
	binary.LittleEndian.PutUint32(img[tab+24:], crc32.Checksum(block, blkCRCTable))
	end := tab + len(bg.blocks[BlockOut])*blkEntrySize
	binary.LittleEndian.PutUint32(img[end:], crc32.Checksum(img[tab:end], blkCRCTable))
	return img
}

// rowDegree returns v's degree in the given direction from the resident
// offsets.
func rowDegree(bg *BlockGraph, dir int, v VID) int {
	off := bg.dirOff(bg.mapDir(dir))
	return int(off[v+1] - off[v])
}

// FuzzDecodeBlockFile throws arbitrary bytes at the FLASHBLK reader: opening
// must never panic or over-allocate, and every block of an image the reader
// accepts must either fail to load with a clean error or serve every row
// through Each: in-range vids, zero weights when unweighted, exactly the
// degree's count of neighbours. The checked-in corpus under testdata/fuzz
// seeds the interesting regions: a pristine file, a truncated tail, a
// bit-flipped block CRC, an oversize single-vertex block, and a CRC-consistent
// block naming a vid past n.
func FuzzDecodeBlockFile(f *testing.F) {
	valid := fuzzSeedImage()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10
	f.Add(flipped)
	f.Add(fuzzOversizeImage())
	f.Add(hostileVIDImage())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		bg, err := OpenBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for _, dir := range []int{BlockOut, BlockIn} {
			for i := 0; i < bg.NumBlocks(dir); i++ {
				blk, err := bg.ReadBlock(dir, i)
				if err != nil {
					continue // CRC, framing or vid-range damage, rejected cleanly
				}
				for v := blk.First(); blk.Contains(v); v++ {
					deg := 0
					err := blk.Each(v, func(d VID, w float32) bool {
						if int(d) >= bg.NumVertices() {
							t.Fatalf("decoded vid %d out of range", d)
						}
						if !bg.Weighted() && w != 0 {
							t.Fatalf("unweighted row yielded weight %v", w)
						}
						deg++
						return true
					})
					if err != nil {
						t.Fatalf("row %d of a block that loaded cleanly: %v", v, err)
					}
					if want := rowDegree(bg, dir, v); deg != want {
						t.Fatalf("row %d yielded %d neighbours, degree is %d", v, deg, want)
					}
				}
			}
		}
	})
}

// flipBlockBytes returns a copy of a valid image with the first byte of
// every block flipped, leaving header and tables intact: every block then
// fails its CRC when read.
func flipBlockBytes(img []byte) []byte {
	bg, err := OpenBlockReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		panic(err)
	}
	out := append([]byte(nil), img...)
	for d := range bg.blocks {
		for _, mt := range bg.blocks[d] {
			out[bg.payloadStart+int64(mt.off)] ^= 0xff
		}
	}
	return out
}
