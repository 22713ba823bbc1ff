package graph

// Segment (de)serialization for the disk-resident engine store
// (internal/store), the graph's one persisted form. The store splits the
// graph into three independent segments:
//
//   - meta: table names, node ranges, counts and score normalizers — a few
//     hundred bytes, parsed eagerly at open so NumNodes/TableID/TableOf
//     work immediately;
//   - arcs: the CSR adjacency (forward and reverse), stored as the exact
//     in-memory arrays so loading is a bulk decode with no re-sorting;
//   - node metadata: per-node RIDs and prestige, from which the
//     rid->node maps are rebuilt.
//
// The arcs and node-metadata segments are fetched lazily through a
// SegmentSource on first touch (first Out/In for arcs, first RIDOf/
// Prestige/NodeOf for node metadata), so a store-opened graph costs almost
// nothing until a query actually expands it. Layouts live here because the
// fields are unexported; framing, checksums and caching belong to the
// store.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/banksdb/banks/internal/sqldb"
)

// SegmentSource supplies the lazily-loaded segment bytes of a store-opened
// graph. Implementations must be safe for concurrent use; the graph calls
// each method at most once (sync.Once-guarded) and validates the decoded
// payload itself.
type SegmentSource interface {
	ArcsSegment() ([]byte, error)
	NodeMetaSegment() ([]byte, error)
}

// lazyGraph is the not-yet-loaded state of a store-opened graph.
type lazyGraph struct {
	src      SegmentSource
	arcs     sync.Once
	nodeMeta sync.Once
	mu       sync.Mutex
	err      error
}

func (l *lazyGraph) setErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// LazyErr reports the first segment-load failure of a store-opened graph,
// or nil. After a failure the affected accessors serve empty (but valid)
// structures, so callers that need loud failures must check LazyErr at
// their operation boundary — banks.System does after every query.
func (g *Graph) LazyErr() error {
	if g.lazy == nil {
		return nil
	}
	g.lazy.mu.Lock()
	defer g.lazy.mu.Unlock()
	return g.lazy.err
}

// ensureArcs materializes the CSR adjacency of a lazily-opened graph. On
// load failure the adjacency stays empty and the error is sticky.
func (g *Graph) ensureArcs() {
	if g.lazy == nil {
		return
	}
	g.lazy.arcs.Do(func() {
		data, err := g.lazy.src.ArcsSegment()
		if err == nil {
			err = g.decodeArcs(data)
		}
		if err != nil {
			nn := g.NumNodes()
			g.fwdOff = make([]int32, nn+1)
			g.revOff = make([]int32, nn+1)
			g.fwdEdges, g.revEdges = nil, nil
			g.lazy.setErr(fmt.Errorf("graph: loading arcs segment: %w", err))
		}
	})
}

// ensureNodeMeta materializes RIDs, prestige and the rid->node maps of a
// lazily-opened graph.
func (g *Graph) ensureNodeMeta() {
	if g.lazy == nil {
		return
	}
	g.lazy.nodeMeta.Do(func() {
		data, err := g.lazy.src.NodeMetaSegment()
		if err == nil {
			err = g.decodeNodeMeta(data)
		}
		if err != nil {
			g.ridOf = make([]sqldb.RID, g.NumNodes())
			g.prestige = make([]float64, g.NumNodes())
			g.nodeOf = make([][]NodeID, len(g.tableNames))
			g.lazy.setErr(fmt.Errorf("graph: loading node metadata segment: %w", err))
		}
	})
}

// EncodeMeta serializes the meta segment: everything a store-opened graph
// needs before any segment load — tables, node ranges, counts and the §2.3
// score normalizers (which finish() would otherwise derive from the arcs).
func (g *Graph) EncodeMeta() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(g.tableNames)))
	for _, name := range g.tableNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	for _, s := range g.tableStart {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	buf = binary.AppendUvarint(buf, uint64(g.NumNodes()))
	buf = binary.AppendUvarint(buf, uint64(g.numArcs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.minEdge))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.maxNode))
	return buf
}

// Segment layout constants (store format v2). Both fixed-width segments
// are laid out so that, when the segment itself starts at an 8-byte file
// offset (the store writer guarantees it) every embedded array is
// naturally aligned — which is what lets an mmap-opened store alias the
// arrays in place instead of decoding them (see alias.go).
const (
	arcsHeaderSize     = 16 // u32 node count · u32 reserved · u64 arc count
	arcRecordSize      = 16 // u32 target · u32 reserved · f64 weight bits
	nodeMetaHeaderSize = 8  // u32 node count · u32 reserved
)

// csrBytes is the encoded size of one direction's CSR: u32 offsets padded
// to an 8-byte boundary, then fixed 16-byte arc records.
func csrBytes(nn int, narcs int) int {
	ob := 4 * (nn + 1)
	return (ob+7)&^7 + arcRecordSize*narcs
}

// EncodeArcs serializes the CSR adjacency segment of a fully-materialized
// graph (a lazily-opened one is materialized first): the 16-byte header,
// then per direction the u32 offsets, zero padding to an 8-byte boundary,
// and 16-byte arc records {u32 target, u32 reserved, f64 weight bits} —
// the in-memory layout of []Edge on little-endian hosts, so an aligned
// view of the segment serves Out/In with no decode step at all.
func (g *Graph) EncodeArcs() ([]byte, error) {
	g.ensureArcs()
	if err := g.LazyErr(); err != nil {
		return nil, err
	}
	nn := g.NumNodes()
	buf := make([]byte, 0, arcsHeaderSize+2*csrBytes(nn, g.numArcs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nn))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.numArcs))
	appendCSR := func(buf []byte, off []int32, edges []Edge) []byte {
		for _, o := range off {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
		}
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
		for _, e := range edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
			buf = binary.LittleEndian.AppendUint32(buf, 0)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
		}
		return buf
	}
	buf = appendCSR(buf, g.fwdOff, g.fwdEdges)
	buf = appendCSR(buf, g.revOff, g.revEdges)
	return buf, nil
}

// EncodeNodeMeta serializes the node metadata segment (RIDs + prestige):
// an 8-byte header, u64 RIDs, then f64 prestige bits — both arrays
// 8-aligned within the segment for in-place aliasing.
func (g *Graph) EncodeNodeMeta() ([]byte, error) {
	g.ensureNodeMeta()
	if err := g.LazyErr(); err != nil {
		return nil, err
	}
	nn := g.NumNodes()
	buf := make([]byte, 0, nodeMetaHeaderSize+16*nn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nn))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, rid := range g.ridOf {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rid))
	}
	for _, p := range g.prestige {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	return buf, nil
}

// OpenLazy reconstructs a graph from its meta segment, deferring the arcs
// and node-metadata segments to src until first touch. The returned graph
// answers NumNodes, NumArcs, table and score-normalizer queries
// immediately; Out/In materialize the adjacency and RIDOf/Prestige/NodeOf
// the node metadata. Segment decoding is validated — corrupt bytes yield
// an error (at OpenLazy for the meta segment, via LazyErr for the lazy
// ones), never a panic.
func OpenLazy(meta []byte, src SegmentSource) (*Graph, error) {
	if src == nil {
		return nil, errors.New("graph: OpenLazy requires a segment source")
	}
	g := &Graph{tableIDs: make(map[string]int32), lazy: &lazyGraph{src: src}}
	d := metaDecoder{buf: meta}
	ntables := d.uvarint()
	if ntables > maxTables {
		return nil, fmt.Errorf("graph: meta segment claims %d tables", ntables)
	}
	for i := uint64(0); i < ntables && d.err == nil; i++ {
		name := d.str()
		g.tableIDs[lower(name)] = int32(len(g.tableNames))
		g.tableNames = append(g.tableNames, name)
	}
	g.tableStart = make([]NodeID, ntables+1)
	for i := range g.tableStart {
		g.tableStart[i] = NodeID(d.uvarint())
	}
	nnodes := d.uvarint()
	narcs := d.uvarint()
	g.minEdge = d.float()
	g.maxNode = d.float()
	if d.err != nil {
		return nil, fmt.Errorf("graph: meta segment: %w", d.err)
	}
	if nnodes > math.MaxInt32 || narcs > math.MaxInt32 {
		return nil, fmt.Errorf("graph: meta segment claims %d nodes, %d arcs", nnodes, narcs)
	}
	g.numArcs = int(narcs)
	// Validate the node ranges, then derive the node->table array: with it
	// resident, TableOf and the metadata-match expansion work without any
	// segment load.
	prev := NodeID(0)
	for i, s := range g.tableStart {
		if s < prev || uint64(s) > nnodes {
			return nil, fmt.Errorf("graph: meta segment: table range %d out of order", i)
		}
		prev = s
	}
	if ntables > 0 && uint64(g.tableStart[ntables]) != nnodes {
		return nil, fmt.Errorf("graph: meta segment: node ranges cover %d of %d nodes",
			g.tableStart[ntables], nnodes)
	}
	if ntables == 0 && nnodes != 0 {
		return nil, fmt.Errorf("graph: meta segment: %d nodes but no tables", nnodes)
	}
	g.tableOf = make([]int32, nnodes)
	for t := int32(0); t < int32(ntables); t++ {
		for n := g.tableStart[t]; n < g.tableStart[t+1]; n++ {
			g.tableOf[n] = t
		}
	}
	return g, nil
}

// maxTables bounds the table count trusted from a meta segment; far beyond
// any real schema, it keeps a corrupt count from driving allocations.
const maxTables = 1 << 20

// maxRIDFactor bounds how sparse the rid space may be relative to the node
// count: the rid->node maps allocate one entry per rid up to the table's
// maximum, so a corrupt 64-bit rid must not drive a huge allocation.
const maxRIDFactor = 256

// decodeArcs fills the CSR arrays from an arcs segment, validating every
// offset and target so corrupt bytes cannot produce a graph that panics
// under search. When the segment bytes are 8-aligned and the host layout
// matches (alias.go), the offset and edge arrays are served as views over
// the segment — zero copy, zero decode; otherwise they are decoded into
// fresh heap arrays. Either way the caller's bytes are never mutated.
func (g *Graph) decodeArcs(data []byte) error {
	nn := g.NumNodes()
	if len(data) < arcsHeaderSize {
		return errors.New("arcs segment truncated")
	}
	if int(binary.LittleEndian.Uint32(data)) != nn {
		return fmt.Errorf("arcs segment built for %d nodes, graph has %d",
			binary.LittleEndian.Uint32(data), nn)
	}
	narcs := int(binary.LittleEndian.Uint64(data[8:]))
	if narcs != g.numArcs {
		return fmt.Errorf("arcs segment holds %d arcs, meta claims %d", narcs, g.numArcs)
	}
	want := arcsHeaderSize + 2*csrBytes(nn, narcs)
	if len(data) != want {
		return fmt.Errorf("arcs segment is %d bytes, want %d", len(data), want)
	}
	alias := canAlias(data)
	p := data[arcsHeaderSize:]
	takeCSR := func() ([]int32, []Edge) {
		ob := 4 * (nn + 1)
		obPad := (ob + 7) &^ 7
		var off []int32
		var edges []Edge
		if alias {
			off = aliasInt32(p, nn+1)
			edges = aliasEdges(p[obPad:], narcs)
		} else {
			off = make([]int32, nn+1)
			for i := range off {
				off[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
			}
			edges = make([]Edge, narcs)
			q := p[obPad:]
			for i := range edges {
				edges[i] = Edge{
					To: NodeID(binary.LittleEndian.Uint32(q[arcRecordSize*i:])),
					W:  math.Float64frombits(binary.LittleEndian.Uint64(q[arcRecordSize*i+8:])),
				}
			}
		}
		p = p[obPad+arcRecordSize*narcs:]
		return off, edges
	}
	validateCSR := func(dir string, off []int32, edges []Edge) error {
		if off[0] != 0 || off[nn] != int32(narcs) {
			return fmt.Errorf("CSR offsets span [%d, %d), want [0, %d)", off[0], off[nn], narcs)
		}
		for i := 0; i < nn; i++ {
			if off[i] > off[i+1] {
				return fmt.Errorf("CSR offsets decrease at node %d", i)
			}
		}
		for i, e := range edges {
			if uint32(e.To) >= uint32(nn) {
				return fmt.Errorf("arc %d targets node %d of %d", i, e.To, nn)
			}
			// Shortest-path search needs finite, strictly positive weights.
			if !(e.W > 0 && e.W <= math.MaxFloat64) {
				n := sort.Search(nn, func(n int) bool { return off[n+1] > int32(i) })
				return fmt.Errorf("%s arc %d (node %d, neighbour %d) has weight %v, want finite and > 0", dir, i, n, e.To, e.W)
			}
		}
		return nil
	}
	fwdOff, fwdEdges := takeCSR()
	revOff, revEdges := takeCSR()
	if err := validateCSR("forward", fwdOff, fwdEdges); err != nil {
		return err
	}
	if err := validateCSR("reverse", revOff, revEdges); err != nil {
		return err
	}
	g.fwdOff, g.fwdEdges = fwdOff, fwdEdges
	g.revOff, g.revEdges = revOff, revEdges
	return nil
}

// decodeNodeMeta fills ridOf and prestige from a node-metadata segment and
// rebuilds the rid->node maps. Like decodeArcs, the flat arrays are
// aliased in place when alignment and host layout allow; the derived
// rid->node maps are always heap-built.
func (g *Graph) decodeNodeMeta(data []byte) error {
	nn := g.NumNodes()
	if len(data) < nodeMetaHeaderSize {
		return errors.New("node metadata segment truncated")
	}
	if int(binary.LittleEndian.Uint32(data)) != nn {
		return fmt.Errorf("node metadata segment built for %d nodes, graph has %d",
			binary.LittleEndian.Uint32(data), nn)
	}
	if len(data) != nodeMetaHeaderSize+16*nn {
		return fmt.Errorf("node metadata segment is %d bytes, want %d", len(data), nodeMetaHeaderSize+16*nn)
	}
	p := data[nodeMetaHeaderSize:]
	var ridOf []sqldb.RID
	var prestige []float64
	if canAlias(data) {
		ridOf = aliasRIDs(p, nn)
		prestige = aliasFloat64(p[8*nn:], nn)
	} else {
		ridOf = make([]sqldb.RID, nn)
		for n := 0; n < nn; n++ {
			ridOf[n] = sqldb.RID(binary.LittleEndian.Uint64(p[8*n:]))
		}
		prestige = make([]float64, nn)
		q := p[8*nn:]
		for n := 0; n < nn; n++ {
			prestige[n] = math.Float64frombits(binary.LittleEndian.Uint64(q[8*n:]))
		}
	}
	ridLimit := uint64(maxRIDFactor)*uint64(nn) + 1<<16
	maxRID := make([]int64, len(g.tableNames))
	for n, rid := range ridOf {
		if uint64(rid) >= ridLimit {
			return fmt.Errorf("node %d claims rid %d (limit %d)", n, uint64(rid), ridLimit)
		}
		if t := g.tableOf[n]; int64(rid) >= maxRID[t] {
			maxRID[t] = int64(rid) + 1
		}
	}
	nodeOf := make([][]NodeID, len(g.tableNames))
	for t := range nodeOf {
		m := make([]NodeID, maxRID[t])
		for i := range m {
			m[i] = NoNode
		}
		nodeOf[t] = m
	}
	for n := range ridOf {
		nodeOf[g.tableOf[n]][ridOf[n]] = NodeID(n)
	}
	g.ridOf, g.prestige, g.nodeOf = ridOf, prestige, nodeOf
	return nil
}

// metaDecoder is a tiny cursor over the meta segment with sticky errors.
type metaDecoder struct {
	buf []byte
	err error
}

func (d *metaDecoder) uvarint() uint64 {
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

func (d *metaDecoder) str() string {
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

func (d *metaDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errors.New("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return f
}
