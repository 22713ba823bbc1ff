package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
)

// TestConcurrentSearchesShareOneSearcher locks in the pooled-arena safety
// claim: one Searcher over one graph/index snapshot must serve many
// goroutines at once (run under -race), each getting exactly the answers a
// serial run produces.
func TestConcurrentSearchesShareOneSearcher(t *testing.T) {
	f := newBibFixture(t)
	queries := [][]string{
		{"soumen", "sunita"},
		{"soumen", "sunita", "byron"},
		{"mohan"},
		{"mohan", "aries"},
		{"surprising", "sunita"},
		{"author"},
	}
	o := defaultBibOptions()

	// Serial reference run.
	want := make([][]string, len(queries))
	for qi, q := range queries {
		answers, err := f.s.Search(q, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			want[qi] = append(want[qi], fmt.Sprintf("%s|%.9f", a.Signature(), a.Score))
		}
	}

	const goroutines = 16
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (gi + r) % len(queries)
				answers, err := f.s.Search(queries[qi], o)
				if err != nil {
					errs <- err
					return
				}
				if len(answers) != len(want[qi]) {
					errs <- fmt.Errorf("query %v: %d answers, want %d", queries[qi], len(answers), len(want[qi]))
					return
				}
				for i, a := range answers {
					got := fmt.Sprintf("%s|%.9f", a.Signature(), a.Score)
					if got != want[qi][i] {
						errs <- fmt.Errorf("query %v answer %d: %s, want %s", queries[qi], i, got, want[qi][i])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentStreamAndBatch mixes streaming (with early cancellation)
// and batch searches across goroutines; cancellation must release arenas
// cleanly so later queries see no stale state.
func TestConcurrentStreamAndBatch(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	var wg sync.WaitGroup
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if (gi+r)%2 == 0 {
					count := 0
					_ = f.s.SearchStream([]string{"soumen", "sunita"}, o, func(*Answer) bool {
						count++
						return count < 1 // cancel after the first answer
					})
				} else {
					if _, err := f.s.Search([]string{"mohan", "aries"}, o); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestDenseBlockOwnership walks one dense block through its two lives.
// An arena iterator that promotes borrows a block and release takes it
// back; a memoized iterator that promotes on one arena carries the block
// into the frontier pool, keeps it through a checkout by another arena,
// and neither arena ever sees it on its free list.
func TestDenseBlockOwnership(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, db)
	f.s.WithFrontierPool(4)
	origin := graph.NodeID(0)
	deepen := func(it *sspIterator) {
		t.Helper()
		for it.dense == nil {
			if _, _, ok := it.Next(); !ok {
				t.Fatal("origin exhausted before promoting")
			}
		}
	}
	seat := func(ar *searchArena, it *sspIterator) {
		ar.beginOrigins(1)
		ar.origins[ar.addOrigin(origin)].it = it
	}

	// Arena-owned: borrowed, returned, handed out again clean.
	a := newSearchArena(f.g.NumNodes())
	it := a.newIterator(f.g, origin)
	seat(a, it)
	deepen(it)
	blk := it.dense
	a.release()
	if it.dense != nil || it.ar != nil {
		t.Error("released iterator still holds its block or its arena")
	}
	if len(a.freeDense) != 1 || a.freeDense[0] != blk {
		t.Fatalf("arena free list = %v, want the promoted block back", a.freeDense)
	}
	if again := a.takeDense(); again != blk {
		t.Error("takeDense did not recycle the returned block")
	} else {
		for n, st := range again.visit {
			if st != 0 {
				t.Fatalf("recycled block has node %d stamped %d", n, st)
			}
		}
	}

	// Pool-owned: promoted on arena a, replayed on arena b.
	src := &frontierSource{ar: a, pool: f.s.frontiers, stats: &Stats{}}
	it = src.acquire(f.g, origin)
	seat(a, it)
	deepen(it)
	blk = it.dense
	src.releaseAll(a)
	a.release()
	if it.ar != nil || it.dense != blk {
		t.Error("pooled iterator kept its arena or lost its block")
	}
	b := newSearchArena(f.g.NumNodes())
	srcB := &frontierSource{ar: b, pool: f.s.frontiers, stats: &Stats{}}
	if got := srcB.acquire(f.g, origin); got != it || it.ar != b || it.dense != blk {
		t.Fatal("checkout did not return the pooled iterator, block attached, owned by the new arena")
	}
	seat(b, it)
	srcB.releaseAll(b)
	b.release()
	if len(a.freeDense) != 0 || len(b.freeDense) != 0 {
		t.Errorf("a pooled iterator's block reached an arena free list (a: %d, b: %d)", len(a.freeDense), len(b.freeDense))
	}
	if it.ar != nil || it.dense != blk {
		t.Error("second checkin lost the block or kept the arena")
	}

	// Pooled while sparse on arena a, promoted on arena b: the block is b's,
	// and leaves b for good.
	origin = 1
	it = src.acquire(f.g, origin)
	seat(a, it)
	it.Next()
	src.releaseAll(a)
	a.release()
	if it.dense != nil {
		t.Fatal("one pop promoted the iterator")
	}
	bBlk := newDenseBlock(b.n)
	b.freeDense = append(b.freeDense, bBlk)
	if got := srcB.acquire(f.g, origin); got != it {
		t.Fatal("checkout missed the sparse pooled iterator")
	}
	seat(b, it)
	deepen(it)
	srcB.releaseAll(b)
	b.release()
	if it.dense != bBlk || it.ar != nil {
		t.Error("iterator promoted on b did not take b's block, or kept the arena")
	}
	if len(a.freeDense) != 0 || len(b.freeDense) != 0 {
		t.Errorf("block taken to the pool is still on a free list (a: %d, b: %d)", len(a.freeDense), len(b.freeDense))
	}
}

// TestBatchedPromotionAcrossArenas: pooled iterators parked while still
// sparse are checked out by concurrent deeper queries that share their
// origins, so they promote on whichever arena runs them and return to the
// pool with that arena's block (queries that lose the checkout build and
// promote their own; the pool keeps one per origin). Under -race, two queries reaching one
// block or one table is a reported race; afterwards every pooled iterator
// must own its storage alone and point at no arena.
func TestBatchedPromotionAcrossArenas(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, db)
	f.s.WithMatchCache(index.NewMatchCache(1 << 20)).
		WithFlightGroup(index.NewFlightGroup()).
		WithFrontierPool(256)
	queries := [][]string{
		{"soumen", "sunita"},
		{"sunita", "seltzer"},
		{"soumen", "sunita", "byron"},
		{"sunita", "mining"},
		{"gray", "sunita"},
	}
	opts := func(strategy string, topK int) *Options {
		o := defaultBibOptions()
		o.Strategy, o.TopK = strategy, topK
		return o
	}
	render := func(answers []*Answer) []string {
		var out []string
		for _, a := range answers {
			out = append(out, fmt.Sprintf("%s|%.9f", a.Signature(), a.Score))
		}
		return out
	}
	const deep = 200
	want := make([][]string, len(queries))
	for qi, q := range queries {
		answers, err := f.s.Search(q, opts(StrategyBackward, deep))
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = render(answers)
	}

	// Shallow pass: one answer each leaves the shared origins pooled sparse.
	for _, q := range queries {
		if _, err := f.s.Search(q, opts(StrategyBatched, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sparse := map[graph.NodeID]bool{}
	for origin, it := range f.s.frontiers.iters {
		if it.dense == nil {
			sparse[origin] = true
		}
	}
	if len(sparse) == 0 {
		t.Fatal("shallow pass pooled no sparse iterator")
	}
	reusedBefore := f.s.FrontierReuses()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				qi := (gi + r) % len(queries)
				answers, err := f.s.Search(queries[qi], opts(StrategyBatched, deep))
				if err != nil {
					errs <- err
					return
				}
				if got := render(answers); !slices.Equal(got, want[qi]) {
					errs <- fmt.Errorf("query %v: batched answers diverged from backward", queries[qi])
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	promoted := 0
	blocks := map[*denseBlock]bool{}
	tables := map[*sparseSlot]bool{}
	for origin, it := range f.s.frontiers.iters {
		if it.ar != nil {
			t.Errorf("pooled iterator for %d still points at an arena", origin)
		}
		if tables[&it.tab[0]] {
			t.Errorf("pooled iterator for %d shares its table", origin)
		}
		tables[&it.tab[0]] = true
		if it.dense == nil {
			continue
		}
		if blocks[it.dense] {
			t.Errorf("pooled iterator for %d shares its dense block", origin)
		}
		blocks[it.dense] = true
		if sparse[origin] {
			promoted++
		}
	}
	if promoted == 0 || f.s.FrontierReuses() == reusedBefore {
		t.Errorf("%d origins pooled sparse came back dense, %d checkouts: the burst never deepened a pooled iterator",
			promoted, f.s.FrontierReuses()-reusedBefore)
	}
}
