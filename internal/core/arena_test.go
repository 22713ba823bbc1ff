package core

// The process-wide arena pool: one arena serves views of different sizes
// and numberings (built engines of two schemas, an overlay past the
// arena's headroom, a cluster partition) and answers exactly as a cold
// arena does, and a released arena holds nothing of the snapshot it last
// served.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// sharedView is one Searcher of TestArenaSharedAcrossViews and its query
// list.
type sharedView struct {
	name    string
	s       *Searcher
	db      *sqldb.Database
	queries [][]string
	opts    *Options
}

func sharedViewDBLPQueries() [][]string {
	return [][]string{
		{"soumen", "sunita"},
		{"seltzer", "sunita"},
		{"gray", "concepts"},
		{"mining", "surprising", "patterns"},
		{"mohan"},
		{"soumen", "sunita", "byron"},
		{"author", "sunita"},
	}
}

func sharedViewDBLPOptions() *Options {
	o := DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	o.MetadataNodeLimit = 200
	return o
}

// sharedViews builds the four views: small DBLP, small TPC-D, an overlay
// on a second DBLP copy that appends more nodes than the DBLP arena's
// headroom, and one of two partitions of the first DBLP graph.
func sharedViews(t *testing.T) []sharedView {
	t.Helper()
	dblp, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	fd := newFixture(t, dblp)
	tpcd, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	ft := newFixture(t, tpcd)

	views := []sharedView{
		{name: "dblp", s: fd.s, db: dblp, queries: sharedViewDBLPQueries(), opts: sharedViewDBLPOptions()},
		{name: "tpcd", s: ft.s, db: tpcd, opts: DefaultOptions(), queries: [][]string{
			{"steel", "widget"},
			{"premium", "steel", "widget"},
			{"economy", "widget"},
			{"supplier"},
		}},
	}
	widest := max(fd.g.NumNodes(), ft.g.NumNodes())
	ov := sharedOverlay(t, widest+widest/8+1-fd.g.NumNodes())
	if ov.s.g.NumNodes() <= widest+widest/8 {
		t.Fatalf("overlay has %d nodes, not past the %d-node arena's headroom", ov.s.g.NumNodes(), widest)
	}
	views = append(views, ov, sharedPartition(t, fd))
	return views
}

// sharedOverlay inserts authors named "Sunita Newcomer<i>", each writing
// an existing paper, into a fresh small DBLP until the overlay has at
// least extra appended nodes.
func sharedOverlay(t *testing.T, extra int) sharedView {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, db)
	gd := graph.NewDelta(f.g, db, false)
	papers := db.Table("Paper")
	var changes []graph.RowChange
	var authors []sqldb.RID
	for i := 0; 2*i < extra; i++ {
		name := fmt.Sprintf("Sunita Newcomer%d", i)
		ra, err := db.Insert("Author", []sqldb.Value{sqldb.Text(fmt.Sprintf("new%d", i)), sqldb.Text(name)})
		if err != nil {
			t.Fatal(err)
		}
		paper := papers.Row(sqldb.RID((7 * i) % papers.Len()))[0]
		rw, err := db.Insert("Writes", []sqldb.Value{sqldb.Text(fmt.Sprintf("new%d", i)), paper})
		if err != nil {
			t.Fatal(err)
		}
		changes = append(changes,
			graph.RowChange{Op: graph.RowInsert, Table: "Author", RID: ra},
			graph.RowChange{Op: graph.RowInsert, Table: "Writes", RID: rw})
		authors = append(authors, ra)
	}
	if err := gd.Apply(changes); err != nil {
		t.Fatal(err)
	}
	og := gd.Snapshot()
	xd := index.NewDelta(f.ix)
	for _, ra := range authors {
		n := og.NodeOf("Author", ra)
		for _, tok := range index.Tokenize(db.Table("Author").Row(ra)[1].String()) {
			xd.Add(tok, n)
		}
	}
	return sharedView{
		name: "overlay", s: NewSearcher(og, xd.Snapshot(og.NumNodes())), db: db,
		queries: append(sharedViewDBLPQueries(), []string{"newcomer3", "soumen"}, []string{"sunita", "newcomer11"}),
		opts:    sharedViewDBLPOptions(),
	}
}

// sharedPartition restricts f's graph to its odd nodes, with the index
// postings renumbered the way a cluster split does.
func sharedPartition(t *testing.T, f *fixture) sharedView {
	t.Helper()
	gp, remap := graph.Restrict(f.g, func(n graph.NodeID) bool { return n%2 == 1 })
	terms := map[string][]graph.NodeID{}
	err := f.ix.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		for _, n := range ns {
			if m := remap[n]; m != graph.NoNode {
				terms[tok] = append(terms[tok], m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.NewFromPostings(gp.NumNodes(), terms, f.ix.MetaTables())
	return sharedView{name: "partition", s: NewSearcher(gp, ix), db: f.db, queries: sharedViewDBLPQueries(), opts: sharedViewDBLPOptions()}
}

// renderQuery runs one query on ar and renders everything it returned:
// every answer field (roots, edges, term nodes, scores, ranks) and every
// Stats field (pops included).
func renderQuery(t *testing.T, v *sharedView, terms []string, ar *searchArena) string {
	t.Helper()
	ar.fit(v.s.g.NumNodes())
	answers, stats, err := v.s.queryInArena(context.Background(), Request{Terms: terms, DB: v.db}, v.opts, nil, ar)
	if err != nil {
		t.Fatalf("%s %v: %v", v.name, terms, err)
	}
	out := renderResult(v, terms, answers, stats)
	ar.release()
	return out
}

func renderResult(v *sharedView, terms []string, answers []*Answer, stats *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v: %+v\n", v.name, terms, *stats)
	for _, a := range answers {
		fmt.Fprintf(&b, "  %+v\n", *a)
	}
	return b.String()
}

// coldRenders renders every query of every view, each on a fresh arena.
func coldRenders(t *testing.T, views []sharedView) [][]string {
	t.Helper()
	want := make([][]string, len(views))
	for i := range views {
		v := &views[i]
		for _, q := range v.queries {
			want[i] = append(want[i], renderQuery(t, v, q, newSearchArena(v.s.g.NumNodes())))
		}
	}
	return want
}

// TestArenaSharedAcrossViews: one arena serves interleaved queries on
// four views of different sizes and numberings, growing once for the
// overlay, and every result is byte-identical to a cold arena's.
func TestArenaSharedAcrossViews(t *testing.T) {
	views := sharedViews(t)
	want := coldRenders(t, views)
	ar := newSearchArena(0)
	grew := false
	for round := 0; round < 3; round++ {
		for qi := 0; ; qi++ {
			ran := false
			for vi := range views {
				v := &views[vi]
				if qi >= len(v.queries) {
					continue
				}
				ran = true
				before := ar.n
				if got := renderQuery(t, v, v.queries[qi], ar); got != want[vi][qi] {
					t.Fatalf("round %d: shared arena differs from a cold one\n--- got ---\n%s--- want ---\n%s", round, got, want[vi][qi])
				}
				if v.name == "overlay" && before > 0 && ar.n > before {
					grew = true
				}
			}
			if !ran {
				break
			}
		}
	}
	if !grew {
		t.Error("the overlay never forced the shared arena to grow")
	}
	if len(ar.freeDense) == 0 {
		t.Error("no iterator promoted: the views never exercised shared dense blocks")
	}
}

// TestArenaSharedAcrossViewsConcurrent runs the same views from four
// goroutines through Searcher.Query, so the process-wide pool hands
// arenas between views and goroutines; -race checks the hand-offs.
func TestArenaSharedAcrossViewsConcurrent(t *testing.T) {
	views := sharedViews(t)
	want := coldRenders(t, views)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range views {
					vi := (k + w) % len(views)
					v := &views[vi]
					for qi, q := range v.queries {
						answers, stats, err := v.s.Query(context.Background(), Request{Terms: q, DB: v.db}, v.opts, nil)
						if err != nil {
							errs <- err.Error()
							return
						}
						if renderResult(v, q, answers, stats) != want[vi][qi] {
							errs <- fmt.Sprintf("worker %d: %s %v differs from a cold arena", w, v.name, q)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReleasePinsNoSnapshot: after release, no recycled iterator keeps a
// view or a key table, and the pipeline frames keep no Searcher — a
// pooled arena outlives the snapshot it served.
func TestReleasePinsNoSnapshot(t *testing.T) {
	views := sharedViews(t)
	ar := newSearchArena(0)
	for i := range views {
		v := &views[i]
		renderQuery(t, v, v.queries[0], ar)
	}
	if len(ar.freeIters) == 0 {
		t.Fatal("no iterators recycled")
	}
	for i, it := range ar.freeIters {
		if it.g != nil {
			t.Errorf("free iterator %d keeps its view", i)
		}
		if !reflect.ValueOf(it.pq.keys).IsZero() {
			t.Errorf("free iterator %d keeps its key table", i)
		}
	}
	if ar.exBuf.s != nil || !reflect.ValueOf(ar.exBuf.keys).IsZero() {
		t.Error("released arena keeps the last query's Searcher or key table")
	}
}

// TestTakeDenseSizesToView: a dense block is as long as the view that
// borrows it, whatever the width of the arena or of the block's backing.
func TestTakeDenseSizesToView(t *testing.T) {
	a := newSearchArena(1000)
	big := a.takeDense(1000)
	if len(big.visit) != 1000 || cap(big.visit) < 1000+1000/8 {
		t.Fatalf("fresh block len %d cap %d, want 1000 with headroom", len(big.visit), cap(big.visit))
	}
	a.freeDense = append(a.freeDense, big)
	small := a.takeDense(250)
	if small != big || len(small.visit) != 250 || len(small.rec) != 250 {
		t.Fatalf("a 250-node view got a block of length %d (recycled: %v)", len(small.visit), small == big)
	}
	a.freeDense = append(a.freeDense, small)
	if grown := a.takeDense(2000); grown == big || len(grown.visit) != 2000 {
		t.Fatalf("a 2000-node view got a block of length %d", len(grown.visit))
	}
	if len(a.freeDense) != 0 {
		t.Errorf("the block that fit no view was kept: %d free", len(a.freeDense))
	}
}

// starsDB is one table of stars, every leaf referencing its hub: an
// "alpha" hub with fan leaves, one of them "omega"; stars "hub" rows with
// leaves leaves each, labelled "bob" and "carol" in turn; and filler
// isolated rows that only widen the graph.
func starsDB(t *testing.T, fan, stars, leaves, filler int) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	if _, err := db.CreateTable(&sqldb.TableSchema{
		Name: "t",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "hub", Type: sqldb.TypeInt},
			{Name: "label", Type: sqldb.TypeText},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "hub", RefTable: "t"}},
	}); err != nil {
		t.Fatal(err)
	}
	id := 0
	row := func(hub int, label string) int {
		id++
		up := sqldb.Null()
		if hub > 0 {
			up = sqldb.Int(int64(hub))
		}
		if _, err := db.Insert("t", []sqldb.Value{sqldb.Int(int64(id)), up, sqldb.Text(label)}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	star := func(hubLabel string, n int, leaf func(int) string) {
		hub := row(0, hubLabel)
		for l := 0; l < n; l++ {
			row(hub, leaf(l))
		}
	}
	star("alpha", fan, func(l int) string { return [2]string{"omega", "link"}[min(l, 1)] })
	for s := 0; s < stars; s++ {
		star("hub", leaves, func(l int) string { return [2]string{"bob", "carol"}[l%2] })
	}
	for f := 0; f < filler; f++ {
		row(0, "filler")
	}
	return newFixture(t, db)
}

// TestRecycledTablesRestartNarrow: a recycled iterator hands the next
// query its table's backing, not its width. In the first query the alpha
// hub's iterator claims its 3 000 leaves on its first pop, growing its
// table past 4 096 slots; a name query on the same arena then draws that
// iterator back, and every table starts sparseInitSlots wide and ends no
// wider than its own nodes need. An iterator that kept its width would
// send a few-dozen-node run's probes across 256 KB.
func TestRecycledTablesRestartNarrow(t *testing.T) {
	// promoteAt = NumNodes/32 must exceed 2 048, or the hub's iterator
	// promotes before its table passes 4 096 slots.
	f := starsDB(t, 3000, 40, 8, 64_000)
	a := newSearchArena(f.g.NumNodes())
	ctx := context.Background()
	if _, _, err := f.s.queryInArena(ctx, Request{Terms: []string{"alpha", "omega"}}, nil, nil, a); err != nil {
		t.Fatal(err)
	}
	widest := 0
	for _, o := range a.origins {
		widest = max(widest, len(o.it.tab))
	}
	if widest <= 4096 {
		t.Fatalf("the first query's widest table is %d slots, want more than 4096", widest)
	}
	a.release()

	hub := f.g.NodeOf("t", 0)
	for i, it := range a.freeIters {
		c := cap(it.tab)
		it.reset(f.g, hub)
		if len(it.tab) != sparseInitSlots || cap(it.tab) != c {
			t.Errorf("free iterator %d reset to %d slots of a %d-slot backing, want %d of %d",
				i, len(it.tab), cap(it.tab), sparseInitSlots, c)
		}
	}

	answers, _, err := f.s.queryInArena(ctx, Request{Terms: []string{"bob", "carol"}}, nil, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("the name query found no answer")
	}
	recycled := 0
	for _, o := range a.origins {
		it := o.it
		if cap(it.tab) > 4096 {
			recycled++
		}
		bound := sparseInitSlots
		for bound < 2*it.live {
			bound *= 2
		}
		if len(it.tab) > bound {
			t.Errorf("origin %d: %d live nodes in a %d-slot table, want at most %d", o.node, it.live, len(it.tab), bound)
		}
	}
	if recycled == 0 {
		t.Error("the name query drew none of the first query's wide tables")
	}
	a.release()
}
