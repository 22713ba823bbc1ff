package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
)

// Options is empty: the store has no serving knobs. Only the benchmark
// harness under bench/, which compiles against store.Open(path,
// store.Options{}), keeps it; the next benchmark revision drops it.
type Options struct{}

// Store is an opened disk-resident engine. Graph and Index return lazy
// views that fault their segments in on first touch; all methods are safe
// for concurrent use.
//
// The store has one byte source: the whole file as one []byte, memory-
// mapped read-only where the platform allows (mmap_unix.go) and read onto
// the heap otherwise. Every segment and posting block is a sub-slice of
// it — checksummed on first touch, then trusted — and the graph's CSR
// arrays and the dictionary's tokens alias it directly. Because queries
// then read mapped memory, the mapping must outlive them: callers that
// race queries against Close hold a reference via Acquire/Release, and
// Close blocks until the last reference is released before unmapping.
type Store struct {
	data    []byte
	unmap   func() error // nil when data is a heap copy
	segs    map[kind]dirEntry
	postSeg []byte // the postings segment, the base of every block ref

	g  *graph.Graph
	ix *index.Index

	// states memoizes the structural segments (arcs, node metadata, term
	// dictionary): checksummed and accounted exactly once each, however
	// many goroutines race the first touch.
	states map[kind]*segState

	blocksMu      sync.Mutex
	blocks        []blockRef // per-term postings refs, set when the dict loads
	blockVerified []atomic.Uint32

	// refs counts the open handle (1) plus outstanding Acquire holders;
	// teardown (unmap) runs when it reaches 0.
	refs     atomic.Int64
	closed   atomic.Bool
	done     chan struct{}
	closeErr error

	mapped  atomic.Int64 // structural segment bytes touched
	faulted atomic.Int64 // cumulative bytes ever faulted from disk

	errMu sync.Mutex
	err   error
}

// segState is the once-only load of one structural segment.
type segState struct {
	once sync.Once
	data []byte
	err  error
}

// blockRef locates one term's postings block inside the postings segment.
type blockRef struct {
	off, length uint64
	crc         uint32
	count       int
}

// Open opens the store file at path. Work is directory-read plus
// header/footer/checksum verification — segments stay on disk until a
// query touches them, which is what makes cold open rebuild-free. The
// file is memory-mapped read-only; where the platform has no mmap, or
// mapping fails, it is read whole onto the heap (openRead) and served the
// same way.
func Open(path string, _ Options) (*Store, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return openRead(path)
	}
	s, err := openBytes(data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return s, nil
}

// openBytes serves a store from data, the whole file. unmap, when
// non-nil, releases data once the store is closed and every Acquire
// holder has released it. data must not change while the store is open.
func openBytes(data []byte, unmap func() error) (*Store, error) {
	s := &Store{data: data, unmap: unmap, done: make(chan struct{})}
	s.refs.Store(1)
	if err := s.readLayout(); err != nil {
		return nil, err
	}
	e := s.segs[kindPostings]
	s.postSeg = data[e.off : e.off+e.length : e.off+e.length]
	s.states = map[kind]*segState{
		kindNodeMeta:  {},
		kindGraphArcs: {},
		kindTermDict:  {},
	}
	metaSeg, err := s.fetchSegment(kindGraphMeta)
	if err != nil {
		return nil, err
	}
	g, err := graph.OpenLazy(metaSeg, s)
	if err != nil {
		return nil, err
	}
	s.g = g
	s.ix = index.OpenLazy(g.NumNodes(), s)
	return s, nil
}

// readLayout verifies the header, footer and directory and indexes the
// segments. Inter-segment gaps (alignment padding) must be shorter than
// segAlign and zero-filled — every byte of the file is then either
// checksummed or pinned to zero, and re-serialization is byte-exact.
func (s *Store) readLayout() error {
	size := uint64(len(s.data))
	if size < headerSize+footerSize {
		return fmt.Errorf("store: file is %d bytes; not a BANKS store", size)
	}
	hdr := s.data[:headerSize]
	if string(hdr[:8]) != Magic {
		return fmt.Errorf("store: not a BANKS store (bad magic %q)", hdr[:8])
	}
	if v := binary.BigEndian.Uint32(hdr[8:]); v != Version {
		return fmt.Errorf("store: unsupported store version %d (want %d)", v, Version)
	}
	foot := s.data[size-footerSize:]
	if string(foot[20:]) != footerMagic {
		return fmt.Errorf("store: truncated or torn store (bad footer magic %q)", foot[20:])
	}
	dirOff := binary.BigEndian.Uint64(foot[0:])
	dirLen := binary.BigEndian.Uint64(foot[8:])
	dirCRC := binary.BigEndian.Uint32(foot[16:])
	if dirLen > size-footerSize-headerSize || dirOff != size-footerSize-dirLen {
		return fmt.Errorf("store: directory [%d, %d) does not fit the file", dirOff, dirOff+dirLen)
	}
	dir := s.data[dirOff : dirOff+dirLen]
	if checksum(dir) != dirCRC {
		return errors.New("store: directory checksum mismatch")
	}
	entries, err := decodeDirectory(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs = make(map[kind]dirEntry, len(entries))
	spans := make([][2]uint64, 0, len(entries)+1)
	for _, e := range entries {
		if e.off < headerSize || e.off > dirOff || e.length > dirOff-e.off {
			return fmt.Errorf("store: %s segment [%d, %d) overruns the directory", e.kind, e.off, e.off+e.length)
		}
		if _, dup := s.segs[e.kind]; dup {
			return fmt.Errorf("store: duplicate %s segment", e.kind)
		}
		s.segs[e.kind] = e
		spans = append(spans, [2]uint64{e.off, e.off + e.length})
	}
	for _, k := range requiredKinds {
		if _, ok := s.segs[k]; !ok {
			return fmt.Errorf("store: missing %s segment", k)
		}
	}
	spans = append(spans, [2]uint64{dirOff, dirOff + dirLen})
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	at := uint64(headerSize)
	for _, sp := range spans {
		if sp[0] < at {
			return fmt.Errorf("store: segments overlap at offset %d", sp[0])
		}
		if gap := sp[0] - at; gap > 0 {
			if gap >= segAlign {
				return fmt.Errorf("store: %d-byte gap before offset %d", gap, sp[0])
			}
			for _, b := range s.data[at:sp[0]] {
				if b != 0 {
					return fmt.Errorf("store: nonzero padding at offset %d", at)
				}
			}
		}
		at = sp[1]
	}
	return nil
}

// fetchSegment checksums one whole segment and returns it as a sub-slice
// of the store's bytes. No memoization, no accounting; segmentBytes adds
// both for the structural kinds.
func (s *Store) fetchSegment(k kind) ([]byte, error) {
	e, ok := s.segs[k]
	if !ok {
		return nil, fmt.Errorf("store: missing %s segment", k)
	}
	b := s.data[e.off : e.off+e.length : e.off+e.length]
	if checksum(b) != e.crc {
		return nil, fmt.Errorf("store: %s segment checksum mismatch", k)
	}
	return b, nil
}

// segmentBytes returns the verified bytes of a structural segment,
// checksumming (and accounting toward MappedBytes and FaultedBytes)
// exactly once however many goroutines race the first touch.
func (s *Store) segmentBytes(k kind) ([]byte, error) {
	st, ok := s.states[k]
	if !ok {
		return s.fetchSegment(k)
	}
	st.once.Do(func() {
		st.data, st.err = s.fetchSegment(k)
		if st.err == nil {
			s.mapped.Add(int64(len(st.data)))
			s.faulted.Add(int64(len(st.data)))
		}
	})
	return st.data, st.err
}

// EngineSource is the unified lazy-load contract a store serves: the
// graph's segment fetches and the index's dictionary/postings fetches.
// Store is the canonical implementation; graph.OpenLazy and index.OpenLazy
// each consume their half.
type EngineSource interface {
	graph.SegmentSource
	index.LazySource
}

var _ EngineSource = (*Store)(nil)

// Graph returns the lazily-loading data graph.
func (s *Store) Graph() *graph.Graph { return s.g }

// Index returns the lazily-loading keyword index.
func (s *Store) Index() *index.Index { return s.ix }

// WALSeq returns the last WAL batch sequence folded into the store, or 0
// when the store predates (or never had) a WAL.
func (s *Store) WALSeq() (uint64, error) {
	if _, ok := s.segs[kindWALSeq]; !ok {
		return 0, nil
	}
	data, err := s.fetchSegment(kindWALSeq)
	if err != nil {
		return 0, err
	}
	if len(data) != 8 {
		return 0, fmt.Errorf("store: WAL sequence segment is %d bytes, want 8", len(data))
	}
	return binary.BigEndian.Uint64(data), nil
}

// Acquire takes a reference that keeps the store's byte source alive (in
// particular, keeps the mapping mapped). It returns false once Close has
// begun and the store must no longer be read. Every Acquire must be paired
// with exactly one Release.
func (s *Store) Acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 || s.closed.Load() {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference taken with Acquire; the last release after
// Close tears the byte source down.
func (s *Store) Release() {
	if s.refs.Add(-1) == 0 {
		s.teardown()
	}
}

// Close releases the store's open reference and waits for outstanding
// Acquire holders to drain, then unmaps/closes the byte source — so a
// query that acquired the store before Close never touches an unmapped
// region. Close is idempotent.
func (s *Store) Close() error {
	if !s.closed.Swap(true) {
		s.Release()
	}
	<-s.done
	return s.closeErr
}

func (s *Store) teardown() {
	if s.unmap != nil {
		s.closeErr = s.unmap()
	}
	close(s.done)
}

// Err reports the first I/O, checksum or decode failure hit by any lazy
// load since Open — the graph's, the index's or the store's own. Lazy
// reads degrade to empty results on failure, so callers that must fail
// loudly (banks.System does, after every query) check Err at their
// operation boundary.
func (s *Store) Err() error {
	s.errMu.Lock()
	err := s.err
	s.errMu.Unlock()
	if err != nil {
		return err
	}
	if err := s.g.LazyErr(); err != nil {
		return err
	}
	return s.ix.LazyErr()
}

func (s *Store) setErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// WarmKeys returns the match-cache warmup keys recorded at save time
// (MatchCache.HotKeys order), or nil when the segment is absent.
func (s *Store) WarmKeys() ([]string, error) {
	if _, ok := s.segs[kindWarmTerms]; !ok {
		return nil, nil
	}
	data, err := s.fetchSegment(kindWarmTerms)
	if err != nil {
		return nil, err
	}
	d := cursor{buf: data}
	n := d.uvarint()
	if n > maxWarmKeys {
		return nil, fmt.Errorf("store: warm segment claims %d keys", n)
	}
	keys := make([]string, 0, min(n, 1024))
	for i := uint64(0); i < n; i++ {
		keys = append(keys, d.str())
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: warm segment: %w", d.err)
	}
	return keys, nil
}

const maxWarmKeys = 1 << 20

// TermStats returns the term-statistics sketch recorded at save time, or
// nil when the segment is absent. The payload is opaque to the store;
// internal/cluster owns the encoding. The returned bytes alias the
// store's — callers must not mutate them.
func (s *Store) TermStats() ([]byte, error) {
	if _, ok := s.segs[kindTermStats]; !ok {
		return nil, nil
	}
	return s.fetchSegment(kindTermStats)
}

// ArcsSegment implements graph.SegmentSource. The returned bytes are a
// sub-slice of the store's, which the graph aliases its CSR arrays over —
// Dijkstra's neighbor scan then reads mapped memory directly.
func (s *Store) ArcsSegment() ([]byte, error) {
	data, err := s.segmentBytes(kindGraphArcs)
	if err != nil {
		s.setErr(err)
		return nil, err
	}
	return data, nil
}

// NodeMetaSegment implements graph.SegmentSource.
func (s *Store) NodeMetaSegment() ([]byte, error) {
	data, err := s.segmentBytes(kindNodeMeta)
	if err != nil {
		s.setErr(err)
		return nil, err
	}
	return data, nil
}

// Dict implements index.LazySource: it parses the term dictionary segment
// into the index-facing LazyDict and the store-private block refs.
func (s *Store) Dict() (*index.LazyDict, error) {
	data, err := s.segmentBytes(kindTermDict)
	if err != nil {
		s.setErr(err)
		return nil, err
	}
	postingsLen := s.segs[kindPostings].length
	d := cursor{buf: data}
	nodes := d.uvarint()
	posts := d.uvarint()
	nterms := d.uvarint()
	if d.err == nil && nodes != uint64(s.g.NumNodes()) {
		d.err = fmt.Errorf("dictionary built for %d nodes, graph has %d", nodes, s.g.NumNodes())
	}
	if d.err == nil && (nterms > math.MaxInt32 || posts > math.MaxInt32) {
		d.err = fmt.Errorf("dictionary claims %d terms, %d postings", nterms, posts)
	}
	dict := &index.LazyDict{Posts: int(posts)}
	// Pre-size from the declared term count, bounded by what the segment
	// could possibly hold (each entry is ≥ 8 encoded bytes) so a corrupt
	// header can't force a huge allocation.
	nalloc := min(nterms, uint64(len(data))/8)
	dict.Toks = make([]string, 0, nalloc)
	dict.Counts = make([]int, 0, nalloc)
	blocks := make([]blockRef, 0, nalloc)
	for i := uint64(0); i < nterms && d.err == nil; i++ {
		// Tokens alias the segment, which is immutable and lives as
		// long as the store — the contract the CSR arrays rely on.
		tok := d.strAlias()
		count := d.uvarint()
		off := d.uvarint()
		ln := d.uvarint()
		crc := d.u32()
		if d.err != nil {
			break
		}
		if count > posts {
			d.err = fmt.Errorf("term %q claims %d of %d postings", tok, count, posts)
			break
		}
		if off+ln < off || off+ln > postingsLen {
			d.err = fmt.Errorf("term %q block [%d, %d) overruns the postings segment (%d bytes)", tok, off, off+ln, postingsLen)
			break
		}
		dict.Toks = append(dict.Toks, tok)
		dict.Counts = append(dict.Counts, int(count))
		blocks = append(blocks, blockRef{off: off, length: ln, crc: crc, count: int(count)})
	}
	nmeta := d.uvarint()
	if d.err == nil && nmeta > math.MaxInt32 {
		d.err = fmt.Errorf("dictionary claims %d metadata terms", nmeta)
	}
	dict.Meta = make(map[string][]int32, min(nmeta, 1024))
	for i := uint64(0); i < nmeta && d.err == nil; i++ {
		tok := d.str()
		nt := d.uvarint()
		if nt > uint64(len(data)) {
			d.err = fmt.Errorf("metadata term %q claims %d tables", tok, nt)
			break
		}
		ts := make([]int32, 0, min(nt, 1024))
		for j := uint64(0); j < nt; j++ {
			v := d.uvarint()
			if v > math.MaxInt32 {
				d.err = fmt.Errorf("metadata term %q references table %d", tok, v)
				break
			}
			ts = append(ts, int32(v))
		}
		dict.Meta[tok] = ts
	}
	if d.err != nil {
		err := fmt.Errorf("store: term dictionary: %w", d.err)
		s.setErr(err)
		return nil, err
	}
	s.blocksMu.Lock()
	s.blocks = blocks
	s.blockVerified = make([]atomic.Uint32, (len(blocks)+31)/32)
	s.blocksMu.Unlock()
	return dict, nil
}

// blockRefFor resolves dictionary entry i's block ref.
func (s *Store) blockRefFor(i int) (blockRef, bool) {
	s.blocksMu.Lock()
	defer s.blocksMu.Unlock()
	if i < 0 || i >= len(s.blocks) {
		return blockRef{}, false
	}
	return s.blocks[i], true
}

// blockSeen reports whether block i already passed its checksum.
func (s *Store) blockSeen(i int) bool {
	return s.blockVerified[i>>5].Load()&(1<<(uint(i)&31)) != 0
}

// markBlockSeen records block i as verified; it reports whether this call
// was the first to do so (the winner accounts the faulted bytes, so
// concurrent first touches count a block at most once).
func (s *Store) markBlockSeen(i int) bool {
	w := &s.blockVerified[i>>5]
	bit := uint32(1) << (uint(i) & 31)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// Postings implements index.LazySource: resolve dictionary entry i into a
// fresh decoded posting list. The encoded block is a sub-slice of the
// store's bytes, checksummed on first touch and trusted after.
func (s *Store) Postings(i int, tok string) ([]graph.NodeID, error) {
	return s.PostingsAppend(i, tok, nil)
}

// PostingsAppend is Postings decoding into dst (extended and returned;
// nil allocates fresh) — the buffer-reuse path for callers that own
// their result, like prefix sweeps appending into one per-query buffer.
func (s *Store) PostingsAppend(i int, tok string, dst []graph.NodeID) ([]graph.NodeID, error) {
	ref, ok := s.blockRefFor(i)
	if !ok {
		err := fmt.Errorf("store: postings request %d outside the dictionary", i)
		s.setErr(err)
		return nil, err
	}
	block := s.postSeg[ref.off : ref.off+ref.length]
	if !s.blockSeen(i) {
		if checksum(block) != ref.crc {
			err := fmt.Errorf("store: postings block for %q fails its checksum", tok)
			s.setErr(err)
			return nil, err
		}
		if s.markBlockSeen(i) {
			s.faulted.Add(int64(ref.length))
		}
	}
	return s.decodeBlock(block, ref, tok, dst)
}

// decodeBlock decodes one verified encoded block, appending to dst (nil
// allocates a right-sized fresh slice).
func (s *Store) decodeBlock(block []byte, ref blockRef, tok string, dst []graph.NodeID) ([]graph.NodeID, error) {
	if dst == nil {
		dst = make([]graph.NodeID, 0, ref.count)
	}
	ns, err := appendPostingsBlock(dst, block, ref.count, s.g.NumNodes())
	if err != nil {
		err = fmt.Errorf("store: postings block for %q: %w", tok, err)
		s.setErr(err)
		return nil, err
	}
	return ns, nil
}

// appendPostingsBlock decodes one delta-varint posting block onto dst,
// validating node ids against the graph. Each posting is at least one
// byte, so a count exceeding the block length is corruption — checked
// before the count is trusted for allocation.
func appendPostingsBlock(dst []graph.NodeID, block []byte, count, numNodes int) ([]graph.NodeID, error) {
	if count > len(block) {
		return nil, fmt.Errorf("%d postings cannot fit in a %d-byte block", count, len(block))
	}
	prev := uint64(0)
	for i := 0; i < count; i++ {
		d, n := binary.Uvarint(block)
		if n <= 0 {
			return nil, fmt.Errorf("truncated at posting %d of %d", i, count)
		}
		block = block[n:]
		prev += d
		if prev >= uint64(numNodes) {
			return nil, fmt.Errorf("posting %d references node %d of %d", i, prev, numNodes)
		}
		dst = append(dst, graph.NodeID(prev))
	}
	if len(block) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d postings", len(block), count)
	}
	return dst, nil
}

// decodePostingsBlock decodes one block into a fresh slice (tests use it).
func decodePostingsBlock(block []byte, count, numNodes int) ([]graph.NodeID, error) {
	return appendPostingsBlock(make([]graph.NodeID, 0, count), block, count, numNodes)
}

// Verify reads every segment end to end and checks all checksums — the
// eager integrity pass lazy opening deliberately skips. It checksums the
// segments in place and leaves the residency counters alone.
func (s *Store) Verify() error {
	for k := range s.segs {
		if _, err := s.fetchSegment(k); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a point-in-time summary of an opened store's residency.
type Stats struct {
	// MappedBytes counts bytes of structural segments (arcs, node
	// metadata, term dictionary) touched so far. They are served in place
	// from the store's bytes: resident via the kernel page cache and
	// shared between processes when the file is mapped, and part of the
	// one heap copy where it could not be.
	MappedBytes int64
	// FaultedBytes counts cumulative bytes ever faulted from disk
	// (structural segments once each, plus each posting block's first
	// read); it never decreases.
	FaultedBytes int64
}

// Stats returns current residency counters.
func (s *Store) Stats() Stats {
	return Stats{MappedBytes: s.mapped.Load(), FaultedBytes: s.faulted.Load()}
}

// FaultedBytes returns the cumulative bytes ever faulted from disk — the
// monotone meter per-query byte budgets are charged against (see
// core.Searcher.WithFaultMeter).
func (s *Store) FaultedBytes() int64 { return s.faulted.Load() }

// cursor is a varint decoder with sticky errors, shared by the dictionary
// and warm-segment parsers.
type cursor struct {
	buf []byte
	err error
}

func (d *cursor) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *cursor) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 || n > uint64(len(d.buf)) {
		d.err = errors.New("string too long")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// strAlias is str without the copy: the returned string aliases the
// cursor's backing bytes. Safe for segment buffers, which are immutable
// for the life of whatever holds the string — the store's bytes are never
// rewritten — and it turns the dictionary parse (one string per term) from
// the dominant first-touch allocator into pointer arithmetic.
func (d *cursor) strAlias() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 || n > uint64(len(d.buf)) {
		d.err = errors.New("string too long")
		return ""
	}
	if n == 0 {
		return ""
	}
	s := unsafe.String(&d.buf[0], int(n))
	d.buf = d.buf[n:]
	return s
}

func (d *cursor) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = errors.New("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}
