package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
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
		answers, _, err := searchTerms(f.s, q, o)
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
				answers, _, err := searchTerms(f.s, queries[qi], o)
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
					_, _, _ = f.s.Query(context.Background(), Request{Terms: []string{"soumen", "sunita"}}, o, func(*Answer) bool {
						count++
						return count < 1 // cancel after the first answer
					})
				} else {
					if _, _, err := searchTerms(f.s, []string{"mohan", "aries"}, o); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestDenseBlockOwnership walks one dense block through an arena: an
// iterator that promotes borrows a block, release takes it back, and the
// next promotion gets it again with every node untouched.
func TestDenseBlockOwnership(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, db)
	origin := graph.NodeID(0)
	a := newSearchArena(f.g.NumNodes())
	it := a.newIterator(f.g, origin)
	a.beginOrigins(1)
	a.origins[a.addOrigin(origin)].it = it
	for it.dense == nil {
		if _, _, ok := it.Next(); !ok {
			t.Fatal("origin exhausted before promoting")
		}
	}
	blk := it.dense
	a.release()
	if it.dense != nil {
		t.Error("released iterator still holds its block")
	}
	if len(a.freeDense) != 1 || a.freeDense[0] != blk {
		t.Fatalf("arena free list = %v, want the promoted block back", a.freeDense)
	}
	if again := a.takeDense(f.g.NumNodes()); again != blk {
		t.Error("takeDense did not recycle the returned block")
	} else {
		for n, st := range again.visit {
			if st != 0 {
				t.Fatalf("recycled block has node %d stamped %d", n, st)
			}
		}
	}
}
