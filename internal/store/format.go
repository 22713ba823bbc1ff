// Package store implements the disk-resident engine store: a versioned,
// checksummed, segmented on-disk format for a built BANKS engine (data
// graph + keyword index + match-cache warmup terms), written by Write and
// opened by Open with zero rebuild work. EMBANKS ("Towards Disk Based
// Algorithms For Keyword-Search In Structured Databases") motivates the
// design: very large engines should load lazily and run in bounded memory
// instead of paying a full SQL→graph→index rebuild at every start.
//
// File layout:
//
//	+--------------------------------------------------------------+
//	| header   magic "BANKSST1" · version u32 · flags u32          |
//	+--------------------------------------------------------------+
//	| segments (8-byte-aligned payloads, any gaps ignored)         |
//	|   graph meta   tables, node ranges, counts, normalizers      |
//	|   node meta    per-node RIDs + prestige                      |
//	|   graph arcs   CSR adjacency, forward + reverse              |
//	|   term dict    sorted tokens -> {count, block off/len/crc}   |
//	|                + metadata (table/column-name) postings       |
//	|   postings     delta-varint posting blocks, one per term     |
//	|   warm terms   match-cache keys hot at save time (optional)  |
//	+--------------------------------------------------------------+
//	| directory    {kind, offset, length, crc32c} per segment      |
//	+--------------------------------------------------------------+
//	| footer    dir offset u64 · dir length u64 · dir crc32c u32   |
//	|           · magic "BANKSEND"                                 |
//	+--------------------------------------------------------------+
//
// The directory lives at the tail (located via the fixed-size footer) so
// the file streams out through one io.Writer pass — no seeking. Open maps
// the file (or, off unix, reads it whole) and serves every segment as a
// sub-slice of those bytes. Opening verifies only the header, footer,
// directory and the small graph-meta segment; every other segment is
// checksummed and decoded on first touch through the graph/index
// lazy-read interfaces. The kernel's page cache over the mapping bounds
// what stays resident (the EMBANKS memory-bound serving mode).
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// Magic opens every store file.
	Magic       = "BANKSST1"
	footerMagic = "BANKSEND"

	// Version gates format changes. Version 2 aligns every segment to an
	// 8-byte file offset and widens arc records to 16 bytes (see
	// graph.EncodeArcs) so an mmap-opened store can serve the CSR arrays
	// and node metadata as zero-copy views over the mapping.
	Version = 2

	headerSize = 16 // magic + version + flags
	footerSize = 28 // dirOff + dirLen + dirCRC + magic
	entrySize  = 24 // kind + offset + length + crc

	// segAlign is the file-offset alignment of every segment: the widest
	// field aliased directly out of the mapping is 8 bytes (float64
	// weights, u64 rids), and mmap bases are page-aligned, so an 8-byte
	// segment offset makes every in-segment array naturally aligned.
	segAlign = 8
)

// Segment kinds. Unknown kinds in the directory are ignored on open, so
// future versions can add segments without breaking old readers.
type kind uint32

const (
	kindGraphMeta kind = 1
	kindNodeMeta  kind = 2
	kindGraphArcs kind = 3
	kindTermDict  kind = 4
	kindPostings  kind = 5
	kindWarmTerms kind = 6
	// kindWALSeq records the sequence number of the last write-ahead-log
	// batch folded into this store (8 bytes, big-endian). It makes WAL
	// truncation crash-safe: replay after a crash skips batches with
	// seq <= the stored value. Absent (old stores) means 0.
	kindWALSeq kind = 7
	// kindTermStats holds the partition's term-statistics sketch: the
	// per-term document frequencies the cluster routing broker consults
	// to prune partitions that cannot match a query. The payload is
	// opaque to the store (internal/cluster owns the encoding); absent
	// means "no sketch" and routing falls back to scattering everywhere.
	kindTermStats kind = 8
)

func (k kind) String() string {
	switch k {
	case kindGraphMeta:
		return "graph meta"
	case kindNodeMeta:
		return "node metadata"
	case kindGraphArcs:
		return "graph arcs"
	case kindTermDict:
		return "term dictionary"
	case kindPostings:
		return "postings"
	case kindWarmTerms:
		return "warm terms"
	case kindWALSeq:
		return "WAL sequence"
	case kindTermStats:
		return "term statistics"
	}
	return fmt.Sprintf("segment kind %d", uint32(k))
}

// requiredKinds must each appear exactly once in a valid store.
var requiredKinds = []kind{kindGraphMeta, kindNodeMeta, kindGraphArcs, kindTermDict, kindPostings}

// castagnoli is the CRC-32C table every segment checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// dirEntry locates one segment and pins its checksum.
type dirEntry struct {
	kind   kind
	off    uint64
	length uint64
	crc    uint32
}

// encodeDirectory renders the directory: a u32 entry count, then fixed
// 24-byte entries, all big-endian.
func encodeDirectory(entries []dirEntry) []byte {
	buf := make([]byte, 0, 4+entrySize*len(entries))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.kind))
		buf = binary.BigEndian.AppendUint64(buf, e.off)
		buf = binary.BigEndian.AppendUint64(buf, e.length)
		buf = binary.BigEndian.AppendUint32(buf, e.crc)
	}
	return buf
}

// maxDirEntries bounds the entry count trusted from a directory.
const maxDirEntries = 1 << 16

func decodeDirectory(data []byte) ([]dirEntry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("directory truncated (%d bytes)", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	if n > maxDirEntries {
		return nil, fmt.Errorf("directory claims %d segments", n)
	}
	if len(data) != 4+entrySize*int(n) {
		return nil, fmt.Errorf("directory is %d bytes for %d segments, want %d", len(data), n, 4+entrySize*int(n))
	}
	entries := make([]dirEntry, n)
	for i := range entries {
		p := data[4+entrySize*i:]
		entries[i] = dirEntry{
			kind:   kind(binary.BigEndian.Uint32(p)),
			off:    binary.BigEndian.Uint64(p[4:]),
			length: binary.BigEndian.Uint64(p[12:]),
			crc:    binary.BigEndian.Uint32(p[20:]),
		}
	}
	return entries, nil
}
