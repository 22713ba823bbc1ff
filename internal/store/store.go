package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
)

// Options tune an opened store's serving mode.
type Options struct {
	// BudgetBytes caps the resident bytes of lazily-loaded posting blocks
	// (encoded block bytes), evicted LRU — the EMBANKS memory-bound serving
	// mode. 0 keeps every touched block resident (no bound); negative
	// disables block caching entirely (every lookup re-reads its block).
	// Structural segments (arcs, node metadata, term dictionary) are
	// loaded at most once each and are reported, not evicted; see
	// Stats.StructuralBytes. A zero-copy store (memory-mapped or opened
	// over Mem) ignores the budget: blocks are served as views of the
	// mapping, whose residency the kernel already bounds.
	BudgetBytes int64
}

// Store is an opened disk-resident engine. Graph and Index return lazy
// views that fault their segments in on first touch; all methods are safe
// for concurrent use.
//
// When the byte source supports zero-copy views (Open memory-maps the file
// on Linux; Mem serves an in-memory image), every segment is served as a
// sub-slice of the mapping — checksummed on first touch, then trusted —
// and the graph's CSR arrays alias the mapping directly. Because queries
// then read mapped memory, the mapping must outlive them: callers that
// race queries against Close hold a reference via Acquire/Release, and
// Close blocks until the last reference is released before unmapping.
type Store struct {
	r      io.ReaderAt
	v      viewer // non-nil when r serves stable zero-copy views
	closer io.Closer
	size   int64
	segs   map[kind]dirEntry
	opts   Options

	g  *graph.Graph
	ix *index.Index

	// states memoizes the structural segments (arcs, node metadata, term
	// dictionary): fetched, checksummed and accounted exactly once each,
	// however many goroutines race the first touch.
	states map[kind]*segState

	blocksMu      sync.Mutex
	blocks        []blockRef // per-term postings refs, set when the dict loads
	blockVerified []atomic.Uint32
	cache         *blockCache

	// refs counts the open handle (1) plus outstanding Acquire holders;
	// teardown (unmap + close) runs when it reaches 0.
	refs     atomic.Int64
	closed   atomic.Bool
	done     chan struct{}
	closeErr error

	structural atomic.Int64 // heap-copied structural segment bytes
	mapped     atomic.Int64 // structural segment bytes served as views (not heap)
	faulted    atomic.Int64 // cumulative bytes ever faulted from disk
	hits       atomic.Int64
	misses     atomic.Int64

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
// query touches them, which is what makes cold open rebuild-free. On
// Linux the file is memory-mapped read-only and served zero-copy; where
// mapping is unavailable the store falls back to plain file reads.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if m, merr := mapFile(f, fi.Size()); merr == nil {
		f.Close() // the mapping holds the pages; the fd is no longer needed
		s, err := OpenReaderAt(m, fi.Size(), opts)
		if err != nil {
			m.Close()
			return nil, err
		}
		s.closer = m
		return s, nil
	}
	s, err := OpenReaderAt(f, fi.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// OpenReaderAt is Open over any random-access byte source (an os.File, a
// bytes.Reader over an in-memory snapshot, a Mem, an mmap). size is the
// total store length in bytes. Sources that also implement the zero-copy
// view extension (Mem, the internal mmap source) are served without
// segment copies.
func OpenReaderAt(r io.ReaderAt, size int64, opts Options) (*Store, error) {
	s := &Store{r: r, size: size, opts: opts, cache: newBlockCache(opts.BudgetBytes), done: make(chan struct{})}
	s.v, _ = r.(viewer)
	s.refs.Store(1)
	if err := s.readLayout(); err != nil {
		return nil, err
	}
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
	if s.size < headerSize+footerSize {
		return fmt.Errorf("store: file is %d bytes; not a BANKS store", s.size)
	}
	var hdr [headerSize]byte
	if _, err := s.r.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: reading header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return fmt.Errorf("store: not a BANKS store (bad magic %q)", hdr[:8])
	}
	if v := binary.BigEndian.Uint32(hdr[8:]); v != Version {
		return fmt.Errorf("store: unsupported store version %d (want %d)", v, Version)
	}
	var foot [footerSize]byte
	if _, err := s.r.ReadAt(foot[:], s.size-footerSize); err != nil {
		return fmt.Errorf("store: reading footer: %w", err)
	}
	if string(foot[20:]) != footerMagic {
		return fmt.Errorf("store: truncated or torn store (bad footer magic %q)", foot[20:])
	}
	dirOff := binary.BigEndian.Uint64(foot[0:])
	dirLen := binary.BigEndian.Uint64(foot[8:])
	dirCRC := binary.BigEndian.Uint32(foot[16:])
	if dirOff < headerSize || dirLen > uint64(s.size) || dirOff+dirLen != uint64(s.size-footerSize) {
		return fmt.Errorf("store: directory [%d, %d) does not fit the file", dirOff, dirOff+dirLen)
	}
	dir := make([]byte, dirLen)
	if _, err := s.r.ReadAt(dir, int64(dirOff)); err != nil {
		return fmt.Errorf("store: reading directory: %w", err)
	}
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
		if e.off < headerSize || e.length > uint64(s.size) || e.off+e.length > dirOff {
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
			var pad [segAlign]byte
			if _, err := s.r.ReadAt(pad[:gap], int64(at)); err != nil {
				return fmt.Errorf("store: reading segment padding: %w", err)
			}
			for _, b := range pad[:gap] {
				if b != 0 {
					return fmt.Errorf("store: nonzero padding at offset %d", at)
				}
			}
		}
		at = sp[1]
	}
	return nil
}

// viewAt returns a zero-copy view of [off, off+n), or nil when the byte
// source cannot serve one.
func (s *Store) viewAt(off, n int64) []byte {
	if s.v == nil {
		return nil
	}
	b, ok := s.v.ViewAt(off, n)
	if !ok {
		return nil
	}
	return b
}

// fetchSegment fetches and checksums one whole segment — as a view when
// the source supports it, as a heap copy otherwise. No memoization, no
// accounting; segmentBytes adds both for the structural kinds.
func (s *Store) fetchSegment(k kind) ([]byte, error) {
	e, ok := s.segs[k]
	if !ok {
		return nil, fmt.Errorf("store: missing %s segment", k)
	}
	if b := s.viewAt(int64(e.off), int64(e.length)); b != nil {
		if checksum(b) != e.crc {
			return nil, fmt.Errorf("store: %s segment checksum mismatch", k)
		}
		return b, nil
	}
	data := make([]byte, e.length)
	if _, err := s.r.ReadAt(data, int64(e.off)); err != nil {
		return nil, fmt.Errorf("store: reading %s segment: %w", k, err)
	}
	if checksum(data) != e.crc {
		return nil, fmt.Errorf("store: %s segment checksum mismatch", k)
	}
	return data, nil
}

// segmentBytes returns the verified bytes of a structural segment,
// fetching (and accounting) exactly once however many goroutines race the
// first touch: a zero-copy view counts toward MappedBytes, a heap copy
// toward StructuralBytes, and either counts toward FaultedBytes once.
func (s *Store) segmentBytes(k kind) ([]byte, error) {
	st, ok := s.states[k]
	if !ok {
		return s.fetchSegment(k)
	}
	st.once.Do(func() {
		e := s.segs[k]
		if b := s.viewAt(int64(e.off), int64(e.length)); b != nil {
			if checksum(b) != e.crc {
				st.err = fmt.Errorf("store: %s segment checksum mismatch", k)
				return
			}
			st.data = b
			s.mapped.Add(int64(e.length))
			s.faulted.Add(int64(e.length))
			return
		}
		data, err := s.fetchSegment(k)
		if err != nil {
			st.err = err
			return
		}
		st.data = data
		s.structural.Add(int64(len(data)))
		s.faulted.Add(int64(len(data)))
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
	if s.closer != nil {
		s.closeErr = s.closer.Close()
	}
	close(s.done)
}

// Mapped reports whether the store serves segments as zero-copy views
// (memory-mapped file or in-memory source) rather than heap copies.
func (s *Store) Mapped() bool { return s.v != nil }

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
// internal/cluster owns the encoding. The returned bytes are a fresh or
// mapped copy — callers must not mutate them.
func (s *Store) TermStats() ([]byte, error) {
	if _, ok := s.segs[kindTermStats]; !ok {
		return nil, nil
	}
	return s.fetchSegment(kindTermStats)
}

// ArcsSegment implements graph.SegmentSource. On a zero-copy store the
// returned bytes are a view of the mapping, which the graph aliases its
// CSR arrays over — Dijkstra's neighbor scan then reads mapped memory
// directly.
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
		// Tokens alias the segment buffer (mapping view or the store's
		// one-shot heap copy — both immutable and store-lifetime, same
		// contract the CSR arrays already rely on).
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
// fresh decoded posting list. On a zero-copy store the encoded block is a
// view of the mapping, checksummed on first touch and trusted after; on a
// copy store the encoded block lives in the budget-bounded LRU cache.
func (s *Store) Postings(i int, tok string) ([]graph.NodeID, error) {
	return s.postings(i, tok, nil, true)
}

// PostingsAppend is Postings decoding into dst (extended and returned) —
// the buffer-reuse path for callers that own their result, like prefix
// sweeps appending into one per-query buffer.
func (s *Store) PostingsAppend(i int, tok string, dst []graph.NodeID) ([]graph.NodeID, error) {
	return s.postings(i, tok, dst, true)
}

// PostingsSequential implements index's sequential-scan source: the same
// block read, but bypassing cache admission (and the hit/miss counters)
// so a full-index sweep — WriteTo, re-Save — streams through without
// pinning every block resident.
func (s *Store) PostingsSequential(i int, tok string) ([]graph.NodeID, error) {
	return s.postings(i, tok, nil, false)
}

// PostingsSequentialAppend is PostingsSequential into a reused buffer; a
// full sweep over the dictionary then decodes every block with a single
// allocation.
func (s *Store) PostingsSequentialAppend(i int, tok string, dst []graph.NodeID) ([]graph.NodeID, error) {
	return s.postings(i, tok, dst, false)
}

// postings is the shared block resolve: locate the ref, obtain verified
// encoded bytes (view, cache or disk read), decode appending to dst (nil
// allocates fresh). interactive selects cache admission and the hit/miss
// counters.
func (s *Store) postings(i int, tok string, dst []graph.NodeID, interactive bool) ([]graph.NodeID, error) {
	ref, ok := s.blockRefFor(i)
	if !ok {
		err := fmt.Errorf("store: postings request %d outside the dictionary", i)
		s.setErr(err)
		return nil, err
	}
	e := s.segs[kindPostings]
	if seg := s.viewAt(int64(e.off), int64(e.length)); seg != nil {
		block := seg[ref.off : ref.off+ref.length]
		if s.blockSeen(i) {
			if interactive {
				s.hits.Add(1)
			}
		} else {
			if checksum(block) != ref.crc {
				err := fmt.Errorf("store: postings block for %q fails its checksum", tok)
				s.setErr(err)
				return nil, err
			}
			if s.markBlockSeen(i) {
				s.faulted.Add(int64(ref.length))
				if interactive {
					s.misses.Add(1)
				}
			} else if interactive {
				s.hits.Add(1)
			}
		}
		return s.decodeBlock(block, ref, tok, dst)
	}
	if enc, ok := s.cache.get(i); ok {
		if interactive {
			s.hits.Add(1)
		}
		return s.decodeBlock(enc, ref, tok, dst)
	}
	if interactive {
		s.misses.Add(1)
	}
	block := make([]byte, ref.length)
	if _, err := s.r.ReadAt(block, int64(e.off+ref.off)); err != nil {
		err = fmt.Errorf("store: reading postings block for %q: %w", tok, err)
		s.setErr(err)
		return nil, err
	}
	if checksum(block) != ref.crc {
		err := fmt.Errorf("store: postings block for %q fails its checksum", tok)
		s.setErr(err)
		return nil, err
	}
	s.faulted.Add(int64(ref.length))
	ns, err := s.decodeBlock(block, ref, tok, dst)
	if err != nil {
		return nil, err
	}
	if interactive {
		s.cache.put(i, block)
	}
	return ns, nil
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
// eager integrity pass lazy opening deliberately skips. It does not
// populate caches or residency counters; on a mapped store it checksums
// the views in place without copying.
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
	// StructuralBytes counts bytes of structural segments (arcs, node
	// metadata, term dictionary) copied onto the heap; they load at most
	// once each and are never evicted. Zero on a zero-copy store — see
	// MappedBytes.
	StructuralBytes int64
	// MappedBytes counts bytes of structural segments served as zero-copy
	// views over the byte source (mmap / in-memory image): resident via
	// the kernel page cache, shared between processes, and invisible to
	// the Go GC.
	MappedBytes int64
	// BlockBytes / BlockEntries describe the encoded posting-block cache,
	// the part BudgetBytes bounds (unused on a zero-copy store).
	BlockBytes   int64
	BlockEntries int
	// BudgetBytes echoes Options.BudgetBytes.
	BudgetBytes int64
	// Hits / Misses count posting-block probes: against the LRU cache on
	// a copy store, against the verified-block set on a zero-copy store.
	Hits, Misses int64
	// FaultedBytes counts cumulative bytes ever faulted from disk
	// (structural segments once each, plus posting-block reads); unlike
	// residency it never decreases.
	FaultedBytes int64
}

// Stats returns current residency counters.
func (s *Store) Stats() Stats {
	st := Stats{
		StructuralBytes: s.structural.Load(),
		MappedBytes:     s.mapped.Load(),
		BudgetBytes:     s.opts.BudgetBytes,
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		FaultedBytes:    s.faulted.Load(),
	}
	st.BlockBytes, st.BlockEntries = s.cache.usage()
	return st
}

// FaultedBytes returns the cumulative bytes ever faulted from disk — the
// monotone meter per-query byte budgets are charged against (see
// core.Searcher.WithFaultMeter).
func (s *Store) FaultedBytes() int64 { return s.faulted.Load() }

// ResidentBytes returns the total lazily-loaded bytes resident on the Go
// heap (mapped views are excluded; see Stats.MappedBytes).
func (s *Store) ResidentBytes() int64 {
	b, _ := s.cache.usage()
	return s.structural.Load() + b
}

// blockCache is the LRU over encoded posting blocks (the compact on-disk
// bytes, not decoded slices — a hit re-decodes, keeping the cache dense).
// max == 0 means unbounded; max < 0 disables caching.
type blockCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	items map[int]*list.Element
	lru   list.List
}

// blockOverhead approximates the fixed per-entry cost charged on top of
// the encoded payload.
const blockOverhead = 64

type blockCacheEntry struct {
	key  int
	enc  []byte
	size int64
}

func newBlockCache(max int64) *blockCache {
	c := &blockCache{max: max}
	if max >= 0 {
		c.items = make(map[int]*list.Element)
	}
	return c
}

func (c *blockCache) get(key int) ([]byte, bool) {
	if c.max < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*blockCacheEntry).enc, true
}

func (c *blockCache) put(key int, enc []byte) {
	if c.max < 0 {
		return
	}
	size := int64(len(enc)) + blockOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && size > c.max {
		return // larger than the whole budget: serve uncached
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*blockCacheEntry)
		c.bytes += size - e.size
		e.enc, e.size = enc, size
		c.lru.MoveToFront(el)
	} else {
		c.items[key] = c.lru.PushFront(&blockCacheEntry{key: key, enc: enc, size: size})
		c.bytes += size
	}
	if c.max == 0 {
		return
	}
	for c.bytes > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := c.lru.Remove(back).(*blockCacheEntry)
		delete(c.items, e.key)
		c.bytes -= e.size
	}
}

func (c *blockCache) usage() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.items)
}

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
// for the life of whatever holds the string — a mapping view or a private
// heap copy, never rewritten — and it turns the dictionary parse (one
// string per term) from the dominant first-touch allocator into pointer
// arithmetic.
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
