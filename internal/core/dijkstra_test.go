package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// lineDB builds nodes connected in a line: t(1) <- t(2) <- ... via an FK
// chain, giving forward arcs i->i-1 (weight 1) and scaled backward arcs.
func lineDB(t *testing.T, n int) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	if _, err := db.CreateTable(&sqldb.TableSchema{
		Name: "t",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "prev", Type: sqldb.TypeInt},
			{Name: "label", Type: sqldb.TypeText},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "prev", RefTable: "t"}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		prev := sqldb.Null()
		if i > 1 {
			prev = sqldb.Int(int64(i - 1))
		}
		if _, err := db.Insert("t", []sqldb.Value{sqldb.Int(int64(i)), prev, sqldb.Text("node")}); err != nil {
			t.Fatal(err)
		}
	}
	return newFixture(t, db)
}

// newSSPIterator roots an iterator on an arena of its own, for tests that
// drive one iterator directly.
func newSSPIterator(g graph.View, origin graph.NodeID) *sspIterator {
	return newSearchArena(g.NumNodes()).newIterator(g, origin)
}

func TestSSPIteratorNondecreasingDistances(t *testing.T) {
	f := lineDB(t, 12)
	origin := f.g.NodeOf("t", 0) // node with id 1, the chain's sink
	it := newSSPIterator(f.g, origin)
	prev := -1.0
	count := 0
	for {
		n, d, ok := it.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatalf("distance decreased: %v after %v", d, prev)
		}
		prev = d
		count++
		if n == origin && d != 0 {
			t.Error("origin should be at distance 0")
		}
	}
	if count != 12 {
		t.Errorf("visited %d nodes, want 12 (chain is fully connected)", count)
	}
}

func TestSSPIteratorDistancesMatchForwardPaths(t *testing.T) {
	f := lineDB(t, 6)
	origin := f.g.NodeOf("t", 0)
	it := newSSPIterator(f.g, origin)
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
	}
	// Node i (rid i) has forward path of i unit arcs to the origin.
	for rid := 1; rid < 6; rid++ {
		n := f.g.NodeOf("t", sqldb.RID(rid))
		d, ok := it.Dist(n)
		if !ok {
			t.Fatalf("node %d unsettled", rid)
		}
		if d != float64(rid) {
			t.Errorf("dist(rid=%d) = %v, want %d", rid, d, rid)
		}
	}
}

func TestSSPIteratorPathEdges(t *testing.T) {
	f := lineDB(t, 5)
	origin := f.g.NodeOf("t", 0)
	it := newSSPIterator(f.g, origin)
	for {
		if _, _, ok := it.Next(); !ok {
			break
		}
	}
	far := f.g.NodeOf("t", 4)
	edges := it.PathEdges(far, nil)
	if len(edges) != 4 {
		t.Fatalf("path edges = %d, want 4", len(edges))
	}
	// The path must consist of real forward arcs chained far -> origin.
	cur := far
	for _, e := range edges {
		if e.From != cur {
			t.Fatalf("path discontinuity at %d", cur)
		}
		if w, aw := f.g.ArcWeight(e.From, e.To), arcWeight(f.g, e.From, e.To); e.W != 0 || w < 0 || aw != w {
			t.Errorf("edge %d->%d: W %v (want it left 0), arcWeight %v, graph %v", e.From, e.To, e.W, aw, w)
		}
		cur = e.To
	}
	if cur != origin {
		t.Errorf("path ends at %d, want origin %d", cur, origin)
	}
	// Origin's own path is empty.
	if got := it.PathEdges(origin, nil); len(got) != 0 {
		t.Errorf("origin path = %v", got)
	}
}

func TestSSPIteratorPeekConsistency(t *testing.T) {
	f := lineDB(t, 8)
	origin := f.g.NodeOf("t", 0)
	it := newSSPIterator(f.g, origin)
	for {
		pn, pd, pok := it.Peek()
		n, d, ok := it.Next()
		if pok != ok {
			t.Fatal("peek/next disagree on exhaustion")
		}
		if !ok {
			break
		}
		if pn != n || pd != d {
			t.Fatalf("peek (%d,%v) != next (%d,%v)", pn, pd, n, d)
		}
	}
	if _, _, ok := it.Peek(); ok {
		t.Error("exhausted iterator should peek nothing")
	}
}

func TestSSPIteratorAgainstSteinerOracle(t *testing.T) {
	// On the bibliographic fixture, the iterator's settled distances must
	// match an independent multi-source Dijkstra (ForwardDistances from
	// internal/steiner is structured differently; here we recompute via
	// brute-force Bellman-Ford).
	f := newBibFixture(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		origin := graph.NodeID(rng.Intn(f.g.NumNodes()))
		it := newSSPIterator(f.g, origin)
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
		}
		want := bellmanFordToOrigin(f.g, origin)
		for v := 0; v < f.g.NumNodes(); v++ {
			d, ok := it.Dist(graph.NodeID(v))
			if !ok {
				if want[v] >= 0 {
					t.Errorf("node %d unreached but oracle says %v", v, want[v])
				}
				continue
			}
			if want[v] < 0 || absF(d-want[v]) > 1e-9 {
				t.Errorf("dist(%d) = %v, oracle %v", v, d, want[v])
			}
		}
	}
}

// bellmanFordToOrigin computes, for every node v, the weight of the
// shortest forward path v -> ... -> origin; -1 when unreachable.
func bellmanFordToOrigin(g *graph.Graph, origin graph.NodeID) []float64 {
	const inf = 1e18
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[origin] = 0
	for iter := 0; iter < g.NumNodes(); iter++ {
		changed := false
		for u := 0; u < g.NumNodes(); u++ {
			for _, e := range g.Out(graph.NodeID(u)) {
				if d := dist[e.To] + e.W; d < dist[u] {
					dist[u] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range dist {
		if dist[i] >= inf {
			dist[i] = -1
		}
	}
	return dist
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestAnswerNodesAndDescribe(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, defaultBibOptions())
	if err != nil || len(answers) == 0 {
		t.Fatalf("answers=%d err=%v", len(answers), err)
	}
	a := answers[0]
	nodes := a.Nodes()
	if len(nodes) != len(a.Edges)+1 {
		t.Errorf("Nodes() = %d, want %d", len(nodes), len(a.Edges)+1)
	}
	if nodes[0] != a.Root {
		t.Error("root should come first")
	}
	desc := a.Describe(f.g)
	if desc == "" || len(desc) < 10 {
		t.Errorf("Describe = %q", desc)
	}
}

// randomFKDB builds n rows in one table, each referencing up to two random
// earlier-or-later rows: unit forward arcs and indegree-scaled backward
// arcs, so equal-distance ties (settle order and parent choice both) are
// everywhere.
func randomFKDB(t *testing.T, rng *rand.Rand, n int) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	if _, err := db.CreateTable(&sqldb.TableSchema{
		Name: "t",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "a", Type: sqldb.TypeInt},
			{Name: "b", Type: sqldb.TypeInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{
			{Column: "a", RefTable: "t"},
			{Column: "b", RefTable: "t"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ref := func(i int) sqldb.Value {
		if i == 1 || rng.Intn(8) == 0 {
			return sqldb.Null()
		}
		return sqldb.Int(int64(1 + rng.Intn(i-1)))
	}
	for i := 1; i <= n; i++ {
		if _, err := db.Insert("t", []sqldb.Value{sqldb.Int(int64(i)), ref(i), ref(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return newFixture(t, db)
}

// sspStep is one Next() as the expansion loop observes it.
type sspStep struct {
	node graph.NodeID
	d    float64
	arcs int
}

// drain runs it to exhaustion (Peeking before every other Next, the two
// call patterns the searches use) and returns the steps appended to seq.
func drain(t *testing.T, it *sspIterator, seq []sspStep) []sspStep {
	t.Helper()
	for {
		if len(seq)%2 == 0 {
			pn, pd, pok := it.Peek()
			n, d, ok := it.Next()
			if pok != ok || (ok && (pn != n || pd != d)) {
				t.Fatalf("peek (%d,%v,%v) != next (%d,%v,%v)", pn, pd, pok, n, d, ok)
			}
			if !ok {
				return seq
			}
			seq = append(seq, sspStep{n, d, it.lastArcs})
			continue
		}
		n, d, ok := it.Next()
		if !ok {
			return seq
		}
		seq = append(seq, sspStep{n, d, it.lastArcs})
	}
}

// sameRun fails unless got settled the same nodes at the same distances
// and arc counts as want, in the same order, and it reports the same Dist
// and PathEdges for every one of them as ref does.
func sameRun(t *testing.T, label string, want, got []sspStep, ref, it *sspIterator) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: settled %d nodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
	for _, s := range want {
		if d, ok := it.Dist(s.node); !ok || d != s.d {
			t.Fatalf("%s: Dist(%d) = %v,%v, want %v", label, s.node, d, ok, s.d)
		}
		wp, gp := ref.PathEdges(s.node, nil), it.PathEdges(s.node, nil)
		if len(wp) != len(gp) {
			t.Fatalf("%s: path of %d has %d edges, want %d", label, s.node, len(gp), len(wp))
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("%s: path of %d edge %d = %+v, want %+v", label, s.node, i, gp[i], wp[i])
			}
		}
	}
}

const neverPromote = int(^uint(0) >> 1)

// TestSSPIteratorRegimesAgree is the differential test of the two state
// representations: from every sampled origin of randomized tie-heavy
// graphs, an iterator held sparse, one dense from reset, ones that promote
// in the middle of a relaxation loop at assorted points (the production
// threshold among them), and recycled iterators carrying stale slots of
// earlier origins all yield the same settle sequence, arc counts, distances
// and paths.
func TestSSPIteratorRegimesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{40, 333, 1500} {
		f := randomFKDB(t, rng, n)
		recycledSparse, recycledMixed := newSSPIterator(f.g, 0), newSSPIterator(f.g, 0)
		for trial := 0; trial < 6; trial++ {
			origin := graph.NodeID(rng.Intn(f.g.NumNodes()))

			sparse := newSSPIterator(f.g, origin)
			sparse.promoteAt = neverPromote
			want := drain(t, sparse, nil)
			if sparse.dense != nil {
				t.Fatal("reference iterator left the sparse regime")
			}
			if len(want) < 2 {
				continue
			}

			natural := newSSPIterator(f.g, origin)
			sameRun(t, "production threshold", want, drain(t, natural, nil), sparse, natural)
			if len(want) > f.g.NumNodes()/densePromoteDiv+1 && natural.dense == nil {
				t.Errorf("n=%d: touched %d nodes and never promoted", n, len(want))
			}

			dense := newSSPIterator(f.g, origin)
			if dense.dense == nil {
				dense.promote()
			}
			sameRun(t, "dense from reset", want, drain(t, dense, nil), sparse, dense)

			for _, at := range []int{1, 2, 7, 32, 33, len(want) / 2, len(want) - 1} {
				mid := newSSPIterator(f.g, origin)
				mid.promoteAt = at
				sameRun(t, "promote mid-run", want, drain(t, mid, nil), sparse, mid)
				if at < len(want)-1 && mid.dense == nil {
					t.Errorf("promoteAt=%d of %d never promoted", at, len(want))
				}
			}

			recycledSparse.reset(f.g, origin)
			recycledSparse.promoteAt = neverPromote
			sameRun(t, "recycled sparse", want, drain(t, recycledSparse, nil), sparse, recycledSparse)

			recycledMixed.reset(f.g, origin)
			recycledMixed.promoteAt = 5 + trial*9
			sameRun(t, "recycled promoting", want, drain(t, recycledMixed, nil), sparse, recycledMixed)
		}
	}
}

// TestSSPIteratorTableGrowsAtHalfLoad pins the growth rule: the table
// holds exactly half its width without growing, the next claim doubles it,
// and every slot survives the rehash, with no stale copy left behind. The
// second round runs on the same iterator recycled, whose table restarts
// narrow and grows within the backing the first round allocated: a node
// the first round claimed must read as free until the second claims it.
func TestSSPIteratorTableGrowsAtHalfLoad(t *testing.T) {
	f := lineDB(t, 3*sparseInitSlots)
	it := newSSPIterator(f.g, 0)
	claim := func(n graph.NodeID) {
		i, ok := it.probe(n)
		if ok {
			t.Fatalf("node %d already claimed", n)
		}
		it.tab[i] = sparseSlot{tag: uint32(n) + 1, parent: uint32(n - 1), dist: float64(n)}
		it.claimed()
	}
	check := func() {
		t.Helper()
		for n := graph.NodeID(1); int(n) < it.live; n++ {
			i, ok := it.probe(n)
			if s := it.tab[i]; !ok || s.dist != float64(n) || s.parent != uint32(n-1) {
				t.Fatalf("node %d lost in a %d-slot table: %+v (found %v)", n, len(it.tab), s, ok)
			}
		}
		used := 0
		for _, s := range it.tab {
			if s.tag != 0 {
				used++
			}
		}
		if used != it.live {
			t.Fatalf("%d slots of the table are taken, want the %d live", used, it.live)
		}
	}
	for round := 0; round < 2; round++ {
		if round == 1 {
			backing := cap(it.tab)
			it.reset(f.g, 0)
			if len(it.tab) != sparseInitSlots || cap(it.tab) != backing {
				t.Fatalf("recycled: %d slots of a %d-slot backing, want %d of %d", len(it.tab), cap(it.tab), sparseInitSlots, backing)
			}
		}
		it.promoteAt = neverPromote
		for n := graph.NodeID(1); int(n) < sparseInitSlots/2; n++ { // the origin is claim one
			claim(n)
		}
		if it.live != sparseInitSlots/2 || len(it.tab) != sparseInitSlots {
			t.Fatalf("at half load: %d live in %d slots, want %d in %d", it.live, len(it.tab), sparseInitSlots/2, sparseInitSlots)
		}
		check()
		claim(sparseInitSlots / 2)
		if len(it.tab) != 2*sparseInitSlots {
			t.Fatalf("one past half load: %d slots, want %d", len(it.tab), 2*sparseInitSlots)
		}
		check()
		for n := graph.NodeID(sparseInitSlots/2 + 1); int(n) <= sparseInitSlots; n++ {
			claim(n)
		}
		if len(it.tab) != 4*sparseInitSlots {
			t.Fatalf("second doubling: %d slots, want %d", len(it.tab), 4*sparseInitSlots)
		}
		check()
	}
}

// TestSSPIteratorRecycledTableForgetsOldRun: a table recycled from a deep
// run restarts narrow on a wide backing whose slots still hold the old
// run's nodes. reset must clear the prefix it restarts on, and grow each
// doubled table before it rehashes into it, or the new run finds nodes it
// never touched. Stepped beside a fresh iterator, the recycled one must
// hold every old-run node in the same state after each pop (absent until
// the new run touches it), and settle identically.
func TestSSPIteratorRecycledTableForgetsOldRun(t *testing.T) {
	f := randomFKDB(t, rand.New(rand.NewSource(11)), 200)
	it := newSSPIterator(f.g, 3)
	it.promoteAt = neverPromote
	old := drain(t, it, nil)
	wide := len(it.tab)
	if wide < 8*sparseInitSlots {
		t.Fatalf("the deep run's table grew to %d slots, want at least %d", wide, 8*sparseInitSlots)
	}

	const origin = graph.NodeID(150)
	fresh := newSSPIterator(f.g, origin)
	fresh.promoteAt = neverPromote
	it.reset(f.g, origin)
	it.promoteAt = neverPromote
	if len(it.tab) != sparseInitSlots || cap(it.tab) != wide {
		t.Fatalf("recycled: %d slots of a %d-slot backing, want %d of %d", len(it.tab), cap(it.tab), sparseInitSlots, wide)
	}
	var want, got []sspStep
	grew := 0
	for {
		for _, s := range old {
			i, ok := it.probe(s.node)
			j, fok := fresh.probe(s.node)
			if ok != fok || ok && it.tab[i] != fresh.tab[j] {
				t.Fatalf("after %d pops: node %d is %+v (found %v) in the recycled table, %+v (found %v) in a fresh one",
					len(got), s.node, it.tab[i], ok, fresh.tab[j], fok)
			}
		}
		width := len(it.tab)
		n, d, ok := it.Next()
		fn, fd, fok := fresh.Next()
		if ok != fok {
			t.Fatalf("after %d pops: the recycled iterator reports %v, a fresh one %v", len(got), ok, fok)
		}
		if !ok {
			break
		}
		got = append(got, sspStep{n, d, it.lastArcs})
		want = append(want, sspStep{fn, fd, fresh.lastArcs})
		if len(it.tab) > width {
			grew++
			if cap(it.tab) != wide {
				t.Fatalf("the table grew out of its %d-slot backing to %d", wide, cap(it.tab))
			}
		}
	}
	if grew < 2 {
		t.Fatalf("the recycled table grew %d times within its backing, want at least 2", grew)
	}
	sameRun(t, "recycled from a deep run", want, got, fresh, it)
}

// refEntry, refHeap: the reference Dijkstra's container/heap frontier,
// popped by (distance, node key) like distHeap.
type refEntry struct {
	d   float64
	key uint64
	n   graph.NodeID
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].d < h[j].d || h[i].d == h[j].d && h[i].key < h[j].key
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

// refState is a node's state in the reference: its distance, the edge to
// its next hop toward the origin with that arc's weight, and whether it
// is settled.
type refState struct {
	d       float64
	e       TreeEdge
	settled bool
}

// refSSP is the plain Dijkstra the iterator is fuzzed against: the same
// reversed arcs and (distance, key) pop order, with a map for the state
// and the arc weight kept beside the parent it chose; among equal-cost
// parents the smallest key wins. It returns the settle sequence and every
// touched node's final state.
func refSSP(g graph.View, origin graph.NodeID) ([]sspStep, map[graph.NodeID]*refState) {
	keys := g.Keys()
	st := map[graph.NodeID]*refState{origin: {}}
	h := &refHeap{{0, keys.Of(origin), origin}}
	var steps []sspStep
	for h.Len() > 0 {
		x := heap.Pop(h).(refEntry)
		v := st[x.n]
		if v.settled {
			continue
		}
		v.settled = true
		in := g.In(x.n)
		steps = append(steps, sspStep{x.n, x.d, len(in)})
		for _, e := range in {
			nd, edge := x.d+e.W, TreeEdge{From: e.To, To: x.n, W: e.W}
			u, ok := st[e.To]
			switch {
			case !ok:
				st[e.To] = &refState{d: nd, e: edge}
				heap.Push(h, refEntry{nd, keys.Of(e.To), e.To})
			case u.settled:
			case nd < u.d:
				u.d, u.e = nd, edge
				heap.Push(h, refEntry{nd, keys.Of(e.To), e.To})
			case nd == u.d && keys.Of(x.n) < keys.Of(u.e.To):
				u.e = edge
			}
		}
	}
	return steps, st
}

// FuzzSSPIterator checks the iterator against refSSP on tie-heavy
// randomFKDB graphs: the settle sequence with arc counts, Dist of every
// node, and every settled node's PathEdges, weighted by arcWeight. Each input
// runs a fresh sparse iterator, one at the production promotion threshold,
// and two drawn back from an arena after a deeper run from another origin
// grew their table wide and, promoted, left a dense block behind: one kept
// sparse, one promoted at pop at. The committed corpus under
// testdata/fuzz replays under plain go test.
func FuzzSSPIterator(f *testing.F) {
	f.Add(int64(1), uint8(30), uint16(0), uint16(3))
	f.Add(int64(2), uint8(200), uint16(17), uint16(90))
	f.Add(int64(3), uint8(255), uint16(250), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, pick, at uint16) {
		rng := rand.New(rand.NewSource(seed))
		g := randomFKDB(t, rng, 33+4*int(size)).g // over 32 nodes: reset never promotes
		n := g.NumNodes()
		origin := graph.NodeID(int(pick) % n)
		want, ref := refSSP(g, origin)
		k := int(at) % (len(want) + 1)

		// run drives it to exhaustion, promoting it after pop promote
		// unless that is negative, and checks it against the reference.
		run := func(label string, it *sspIterator, promoteAt, promote int) {
			t.Helper()
			it.promoteAt = promoteAt
			var got []sspStep
			for len(got) < promote {
				v, d, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, sspStep{v, d, it.lastArcs})
			}
			if promote >= 0 && it.dense == nil {
				it.promote()
			}
			got = drain(t, it, got)
			if len(got) != len(want) {
				t.Fatalf("%s: settled %d nodes, want %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: step %d = %+v, want %+v", label, i, got[i], want[i])
				}
			}
			for v := graph.NodeID(0); int(v) < n; v++ {
				r := ref[v]
				if d, ok := it.Dist(v); ok != (r != nil) || ok && d != r.d {
					t.Fatalf("%s: Dist(%d) = %v,%v, want %+v", label, v, d, ok, r)
				}
				if r == nil {
					continue
				}
				var path []TreeEdge
				for u := v; u != origin; u = ref[u].e.To {
					path = append(path, ref[u].e)
				}
				got := it.PathEdges(v, nil)
				for i := range got {
					got[i].W = arcWeight(g, got[i].From, got[i].To)
				}
				if !slices.Equal(got, path) {
					t.Fatalf("%s: PathEdges(%d) with arcWeight = %v, want %v", label, v, got, path)
				}
			}
		}
		run("sparse", newSSPIterator(g, origin), neverPromote, -1)
		run("production threshold", newSSPIterator(g, origin), n/densePromoteDiv, -1)

		ar := newSearchArena(n)
		for _, promote := range []int{-1, k} {
			deep := graph.NodeID(rng.Intn(n))
			it := ar.newIterator(g, deep)
			it.promoteAt = neverPromote
			for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
			}
			it.promote()
			ar.origins = append(ar.origins, originRec{node: deep, it: it})
			ar.release()
			if it2 := ar.newIterator(g, origin); it2 != it {
				t.Fatal("the arena did not hand back its released iterator")
			}
			run(fmt.Sprintf("recycled, promoted after pop %d (-1: never)", promote), it, neverPromote, promote)
			ar.origins = append(ar.origins, originRec{node: origin, it: it})
			ar.release()
		}
	})
}
