package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

// segmentsTestGraph builds a small graph with a foreign-key hub and a
// deleted row, exercising tombstoned rid maps.
func segmentsTestGraph(t *testing.T) (*sqldb.Database, *Graph) {
	t.Helper()
	db := newUniversityDB(t, 6)
	if err := db.Delete("student", 2); err != nil {
		t.Fatal(err)
	}
	return db, mustBuild(t, db, nil)
}

// memSource serves segments from memory, counting fetches.
type memSource struct {
	arcs, nodeMeta []byte
	arcsN, nodesN  int
	arcsErr        error
}

func (m *memSource) ArcsSegment() ([]byte, error) {
	m.arcsN++
	if m.arcsErr != nil {
		return nil, m.arcsErr
	}
	return m.arcs, nil
}

func (m *memSource) NodeMetaSegment() ([]byte, error) {
	m.nodesN++
	return m.nodeMeta, nil
}

func encodeSegments(t *testing.T, g *Graph) (meta []byte, src *memSource) {
	t.Helper()
	arcs, err := g.EncodeArcs()
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := g.EncodeNodeMeta()
	if err != nil {
		t.Fatal(err)
	}
	return g.EncodeMeta(), &memSource{arcs: arcs, nodeMeta: nodes}
}

// reopen round-trips g through its encoded segments, the way a store
// persists and reopens it.
func reopen(t *testing.T, g *Graph) *Graph {
	t.Helper()
	meta, src := encodeSegments(t, g)
	back, err := OpenLazy(meta, src)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// requireSameSegments fails unless a and b encode to identical segments.
// The encoders walk every table, node, rid, prestige value and arc, so
// identical bytes mean identical graphs.
func requireSameSegments(t *testing.T, a, b *Graph) {
	t.Helper()
	metaA, srcA := encodeSegments(t, a)
	metaB, srcB := encodeSegments(t, b)
	if !bytes.Equal(metaA, metaB) || !bytes.Equal(srcA.arcs, srcB.arcs) || !bytes.Equal(srcA.nodeMeta, srcB.nodeMeta) {
		t.Fatal("graphs encode to different segments")
	}
}

func TestSegmentsRoundTripByteIdentical(t *testing.T) {
	_, g := segmentsTestGraph(t)
	meta, src := encodeSegments(t, g)

	lg, err := OpenLazy(meta, src)
	if err != nil {
		t.Fatal(err)
	}
	// Eager facts come from the meta segment alone.
	if src.arcsN != 0 || src.nodesN != 0 {
		t.Fatalf("OpenLazy touched segments: arcs=%d nodes=%d", src.arcsN, src.nodesN)
	}
	if lg.NumNodes() != g.NumNodes() || lg.NumArcs() != g.NumArcs() || lg.NumTables() != g.NumTables() {
		t.Fatalf("lazy graph shape %s, want %s", lg, g)
	}
	if lg.MinEdgeWeight() != g.MinEdgeWeight() || lg.MaxNodeWeight() != g.MaxNodeWeight() {
		t.Fatalf("normalizers differ: (%v,%v) vs (%v,%v)",
			lg.MinEdgeWeight(), lg.MaxNodeWeight(), g.MinEdgeWeight(), g.MaxNodeWeight())
	}
	for n := 0; n < g.NumNodes(); n++ {
		if lg.TableOf(NodeID(n)) != g.TableOf(NodeID(n)) {
			t.Fatalf("TableOf(%d) differs", n)
		}
	}

	// The strongest equivalence check available: the lazy graph
	// re-encodes to the built graph's segments byte for byte.
	requireSameSegments(t, g, lg)
	if src.arcsN != 1 || src.nodesN != 1 {
		t.Fatalf("segments fetched arcs=%d nodes=%d times, want once each", src.arcsN, src.nodesN)
	}
	// rid->node maps round-trip too.
	if lg.NodeOf("author", g.RIDOf(0)) != g.NodeOf("author", g.RIDOf(0)) {
		t.Fatal("NodeOf differs")
	}
	if err := lg.LazyErr(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLazyArcsErrorIsStickyAndSafe(t *testing.T) {
	_, g := segmentsTestGraph(t)
	meta, src := encodeSegments(t, g)
	src.arcsErr = errors.New("disk gone")

	lg, err := OpenLazy(meta, src)
	if err != nil {
		t.Fatal(err)
	}
	// Accessors must not panic after a load failure: the adjacency is empty.
	for n := 0; n < lg.NumNodes(); n++ {
		if len(lg.Out(NodeID(n))) != 0 || len(lg.In(NodeID(n))) != 0 {
			t.Fatal("failed arcs load produced edges")
		}
	}
	if err := lg.LazyErr(); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("LazyErr = %v, want the load failure", err)
	}
	if src.arcsN != 1 {
		t.Fatalf("failed load retried %d times, want 1 (sticky)", src.arcsN)
	}
}

func TestDecodeRejectsCorruptSegments(t *testing.T) {
	_, g := segmentsTestGraph(t)
	meta, src := encodeSegments(t, g)

	corrupt := func(name string, mutate func(s *memSource)) {
		s := &memSource{
			arcs:     append([]byte(nil), src.arcs...),
			nodeMeta: append([]byte(nil), src.nodeMeta...),
		}
		mutate(s)
		lg, err := OpenLazy(meta, s)
		if err != nil {
			t.Fatalf("%s: OpenLazy failed on valid meta: %v", name, err)
		}
		lg.Out(0)
		lg.Prestige(0)
		if lg.LazyErr() == nil {
			t.Errorf("%s: corrupt segment accepted", name)
		}
	}
	corrupt("truncated arcs", func(s *memSource) { s.arcs = s.arcs[:len(s.arcs)-3] })
	corrupt("arc target out of range", func(s *memSource) {
		// First edge target lives after the header and the fwd offsets.
		off := 12 + 4*(g.NumNodes()+1)
		s.arcs[off] = 0xFF
		s.arcs[off+1] = 0xFF
		s.arcs[off+2] = 0xFF
		s.arcs[off+3] = 0x7F
	})
	// Weights: the first forward arc's record follows the header and the
	// 8-aligned forward offsets; its weight is the record's second word.
	weightAt := arcsHeaderSize + (4*(g.NumNodes()+1)+7)&^7 + 8
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		s := &memSource{arcs: append([]byte(nil), src.arcs...), nodeMeta: src.nodeMeta}
		binary.LittleEndian.PutUint64(s.arcs[weightAt:], math.Float64bits(w))
		lg, err := OpenLazy(meta, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Out(0)) != 0 {
			t.Errorf("weight %v: arcs served after a rejected segment", w)
		}
		if err := lg.LazyErr(); err == nil || !strings.Contains(err.Error(), "forward arc 0 (node 0,") {
			t.Errorf("weight %v: LazyErr = %v, want the arc named", w, err)
		}
	}
	corrupt("truncated node meta", func(s *memSource) { s.nodeMeta = s.nodeMeta[:7] })
	corrupt("huge rid", func(s *memSource) {
		for i := 4; i < 12; i++ {
			s.nodeMeta[i] = 0xFF
		}
	})

	// Corrupt meta segments fail at OpenLazy itself.
	if _, err := OpenLazy(meta[:len(meta)-5], src); err == nil {
		t.Error("truncated meta accepted")
	}
	if _, err := OpenLazy([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, src); err == nil {
		t.Error("garbage meta accepted")
	}
}
