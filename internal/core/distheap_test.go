package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// heapWeights are the steps the heap tests push at: 0 (a push at the
// current minimum, which a weight lost to rounding gives), integers and
// half-integers for distance ties, and non-dyadic steps whose float64 bits
// differ low in the mantissa.
var heapWeights = [8]float64{0, 0.5, 1, 1.5, 2, 3, 0.1, 1.0 / 3}

// scrambledKeys returns a key table for n node ids whose key order is not
// id order: a bijective scramble of the id as the rid, over three tables.
func scrambledKeys(n int) graph.Keys {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = graph.Key(int32(i%3), sqldb.RID(uint32(i)*0x9E3779B1))
	}
	return graph.NewKeys(keys)
}

// runDistHeap drives h and a reference through the monotone sequence ops
// encodes, failing at the first disagreement, then drains both. Each byte
// is one operation. Low bits 0 or 1 push a fresh node at the floor plus a
// step: bits 2-4 pick it from heapWeights, bits 5-7 scale it by 2^k. Low
// bits 2 check min and dist against the reference's (d, key) minimum, and
// 3 also pop it. The floor is the last minimum observed: like Dijkstra,
// the sequence never pushes below it.
func runDistHeap(t *testing.T, h *distHeap, ops []byte) {
	t.Helper()
	keys := scrambledKeys(len(ops))
	h.reset(keys, new(tieScratch))
	type entry struct {
		d    float64
		node graph.NodeID
	}
	byDistKey := func(a, b entry) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(keys.Of(a.node), keys.Of(b.node))
	}
	var ref []entry
	floor := 0.0
	for i, b := range ops {
		if b&3 < 2 {
			e := entry{floor + heapWeights[b>>2&7]*float64(int(1)<<(b>>5)), graph.NodeID(i)}
			h.push(e.node, e.d)
			ref = append(ref, e)
			continue
		}
		n, ok := h.min()
		if ok != (len(ref) > 0) {
			t.Fatalf("op %d: min reports %v with %d entries", i, ok, len(ref))
		}
		if !ok {
			continue
		}
		j := 0
		for k := range ref {
			if byDistKey(ref[k], ref[j]) < 0 {
				j = k
			}
		}
		if n != ref[j].node || h.dist() != ref[j].d {
			t.Fatalf("op %d: min (%d, %v), want (%d, %v)", i, n, h.dist(), ref[j].node, ref[j].d)
		}
		floor = ref[j].d
		if b&3 == 3 {
			h.pop()
			ref = slices.Delete(ref, j, j+1)
		}
	}
	slices.SortFunc(ref, byDistKey)
	for i, want := range ref {
		n, ok := h.min()
		if !ok || n != want.node || h.dist() != want.d {
			t.Fatalf("drain %d: min (%d, %v, %v), want (%d, %v)", i, n, h.dist(), ok, want.node, want.d)
		}
		h.pop()
	}
	if n, ok := h.min(); ok {
		t.Fatalf("drained heap still holds node %d", n)
	}
}

// FuzzDistHeap checks the radix heap against a sort on (distance, key)
// over arbitrary monotone push/min/pop sequences (see runDistHeap).
func FuzzDistHeap(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 3, 3, 3, 3})                    // all ties, pushes at the minimum
	f.Add([]byte{0xe0 | 8, 4, 0x20 | 24, 28, 3, 1, 5, 3, 2, 3, 3, 3}) // scaled, non-dyadic steps
	// More ties at one distance than radixMin, so the first min radix-sorts
	// the bucket; then pushes at the minimum into the radix-ordered bucket.
	f.Add(append(bytes.Repeat([]byte{4}, radixMin+6), 2, 3, 0, 3, 0, 4, 3, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDistHeap(t, new(distHeap), ops)
	})
}

// TestDistHeapMatchesSortedOrder is FuzzDistHeap's randomized twin: long
// tie-heavy sequences on one recycled heap, so reset's retained state is
// exercised too.
func TestDistHeapMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := new(distHeap)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 1+rng.Intn(1500))
		pushBias := 2 + rng.Intn(4) // pushes outnumber checks 1:1 .. 4:1
		for i := range ops {
			b := byte(rng.Intn(256))
			if rng.Intn(pushBias+1) > 0 {
				b &^= 2 // push
			} else {
				b |= 2 // min, or min and pop
			}
			if trial%2 == 0 {
				b &^= 0xe0 // unscaled steps: the densest ties
			}
			ops[i] = b
		}
		runDistHeap(t, h, ops)
	}
}

// tieKeyPatterns build the key tables TestDistHeapRadixTieBuckets fills
// tie buckets from: n unique keys, node id i's key at index i, in an
// order unrelated to id order (rng scrambles it).
var tieKeyPatterns = []struct {
	name string
	keys func(rng *rand.Rand, n int) []uint64
}{
	{"table bits only", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i, t := range rng.Perm(n) {
			keys[i] = graph.Key(int32(t), 0x2a2a2a)
		}
		return keys
	}},
	// Up to 256 keys differ only in one byte, rid bits 40-47, so a sort
	// makes a single pass in the middle of the word; past 256 the table
	// bits differ too.
	{"rid bits 40-47", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i, v := range rng.Perm(n) {
			keys[i] = graph.Key(int32(3+v>>8), 0x1234_5678|sqldb.RID(v&0xff)<<40)
		}
		return keys
	}},
	{"every byte", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, 0, n)
		seen := map[uint64]bool{}
		for len(keys) < n {
			if k := rng.Uint64(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}},
	// An overlay numbers a table's inserted rows after every base node, and
	// their rids continue past the table's base rows: the first half of the
	// ids are base rows of three tables, the second half appended ones.
	{"overlay appends", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		base := n / 2
		perm := rng.Perm(base)
		for i := range keys {
			if i < base {
				keys[i] = graph.Key(int32(perm[i]%3), sqldb.RID(perm[i]/3))
			} else {
				j := i - base
				keys[i] = graph.Key(int32(j%3), sqldb.RID((base+2)/3+j/3))
			}
		}
		return keys
	}},
}

// TestDistHeapRadixTieBuckets drives sortZero's radix path on purpose:
// tie buckets just below, at and above radixMin and far above it, over
// keys that differ in a single byte or in all of them. n nodes at
// distance 1 form the bucket the first min sorts, n/2 more at distance 2
// the next one, sorted on the same scratch. While the first drains, n/4
// held-back nodes are pushed one per pop, by ascending key: at the
// minimum (pushZero, the rounding case) when the key is above the last
// one popped, so the binary insert lands inside the order the sort left,
// else at distance 2. The pop sequence must equal slices.SortFunc's order
// on (distance, key).
func TestDistHeapRadixTieBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, tie := new(distHeap), new(tieScratch)
	for _, p := range tieKeyPatterns {
		for _, n := range []int{radixMin - 1, radixMin, radixMin + 1, 1000, 5000} {
			m, n2 := n/4, n/2
			keys := graph.NewKeys(p.keys(rng, n+m+n2))
			h.reset(keys, tie)
			type entry struct {
				d    float64
				node graph.NodeID
			}
			var pushed, popped []entry
			push := func(u graph.NodeID, d float64) {
				h.push(u, d)
				pushed = append(pushed, entry{d, u})
			}
			for i := 0; i < n; i++ {
				push(graph.NodeID(i), 1)
			}
			for i := n + m; i < n+m+n2; i++ {
				push(graph.NodeID(i), 2)
			}
			if _, ok := h.min(); !ok || len(h.zero) != n {
				t.Fatalf("%s, n=%d: the first refill formed a bucket of %d", p.name, n, len(h.zero))
			}
			held := make([]graph.NodeID, m)
			for i := range held {
				held[i] = graph.NodeID(n + i)
			}
			slices.SortFunc(held, func(a, b graph.NodeID) int { return cmp.Compare(keys.Of(a), keys.Of(b)) })
			var lastKey uint64
			atMin := 0
			for {
				u, ok := h.min()
				if !ok {
					break
				}
				popped = append(popped, entry{h.dist(), u})
				lastKey = keys.Of(u)
				h.pop()
				if len(held) > 0 && h.dist() == 1 {
					if u := held[0]; keys.Of(u) > lastKey {
						push(u, 1)
						atMin++
					} else {
						push(u, 2)
					}
					held = held[1:]
				}
			}
			if len(held) > 0 || atMin == 0 {
				t.Fatalf("%s, n=%d: %d held-back nodes left, %d pushed at the minimum", p.name, n, len(held), atMin)
			}
			slices.SortFunc(pushed, func(a, b entry) int {
				if c := cmp.Compare(a.d, b.d); c != 0 {
					return c
				}
				return cmp.Compare(keys.Of(a.node), keys.Of(b.node))
			})
			if !slices.Equal(popped, pushed) {
				t.Fatalf("%s, n=%d: pop order differs from the sort on (distance, key)", p.name, n)
			}
		}
	}
}

// twoTableDB builds tables p (self-referencing) and q (referencing p and
// q) with n rows each and random links, so a row inserted into p later
// lands mid-numbering in a rebuild but after every q row in an overlay.
func twoTableDB(t *testing.T, rng *rand.Rand, n int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	for _, s := range []*sqldb.TableSchema{{
		Name:        "p",
		Columns:     []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}, {Name: "p", Type: sqldb.TypeInt}},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "p", RefTable: "p"}},
	}, {
		Name:        "q",
		Columns:     []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}, {Name: "p", Type: sqldb.TypeInt}, {Name: "q", Type: sqldb.TypeInt}},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "p", RefTable: "p"}, {Column: "q", RefTable: "q"}},
	}} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		insertLinked(t, db, rng, "p", i, n)
	}
	for i := 1; i <= n; i++ {
		insertLinked(t, db, rng, "q", i, n)
	}
	return db
}

// insertLinked inserts row id of table into db, linking it to random
// existing rows (or to none): p ids up to pRows, and for a table's
// reference to itself, ids below id.
func insertLinked(t *testing.T, db *sqldb.Database, rng *rand.Rand, table string, id, pRows int) sqldb.RID {
	t.Helper()
	ref := func(below int) sqldb.Value {
		if below < 1 || rng.Intn(6) == 0 {
			return sqldb.Null()
		}
		return sqldb.Int(int64(1 + rng.Intn(below)))
	}
	row := []sqldb.Value{sqldb.Int(int64(id)), ref(id - 1)}
	if table == "q" {
		row = []sqldb.Value{sqldb.Int(int64(id)), ref(pRows), ref(id - 1)}
	}
	rid, err := db.Insert(table, row)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestSSPIteratorOverlayMatchesRebuild: an overlay numbers inserted rows
// after every base node, while a rebuild numbers them into their table's
// block. From every origin, iterators on both settle the same (table,
// rid) sequence at the same distances and arc counts, with the same
// shortest-path edges.
func TestSSPIteratorOverlayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 80
	db := twoTableDB(t, rng, n)
	base, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := graph.NewDelta(base, db, true)
	var changes []graph.RowChange
	for i := n + 1; i <= n+25; i++ {
		for _, table := range []string{"p", "q"} {
			rid := insertLinked(t, db, rng, table, i, i)
			changes = append(changes, graph.RowChange{Op: graph.RowInsert, Table: table, RID: rid})
		}
	}
	if err := delta.Apply(changes); err != nil {
		t.Fatal(err)
	}
	overlay := delta.Snapshot()
	rebuilt, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		key  uint64
		d    float64
		arcs int
		path []uint64 // (from, to) keys of PathEdges, flattened
	}
	run := func(v graph.View, origin graph.NodeID) []step {
		keys := v.Keys()
		it := newSSPIterator(v, origin)
		var steps []step
		for {
			u, d, ok := it.Next()
			if !ok {
				return steps
			}
			var path []uint64
			for _, e := range it.PathEdges(u, nil) {
				path = append(path, keys.Of(e.From), keys.Of(e.To))
			}
			steps = append(steps, step{keys.Of(u), d, it.lastArcs, path})
		}
	}
	ties := 0
	for u := graph.NodeID(0); int(u) < overlay.NumNodes(); u++ {
		table, rid := overlay.TableNameOf(u), overlay.RIDOf(u)
		want := run(overlay, u)
		for i := 1; i < len(want); i++ {
			if want[i].d == want[i-1].d {
				ties++
			}
		}
		got := run(rebuilt, rebuilt.NodeOf(table, rid))
		if !slices.EqualFunc(want, got, func(a, b step) bool {
			return a.key == b.key && a.d == b.d && a.arcs == b.arcs && slices.Equal(a.path, b.path)
		}) {
			t.Fatalf("origin %s/%d: the rebuild settles differently from the overlay", table, rid)
		}
	}
	if ties == 0 {
		t.Fatal("no distance ties: the fixture does not exercise the key tie-break")
	}
}
