package banks

// Warm-state carryover across snapshot publishes. Apply must not reset
// the serving cache: a publish carries the previous snapshot's match
// cache, invalidating only the batch's touched terms. Compact must not
// stall Apply for the duration
// of the rebuild: the base is materialized aside and only the tail fold
// and swap run under the writer lock. These tests pin both behaviours,
// their correctness boundary (a term mutated is never served stale), and
// the regressions around them.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/datagen"
)

// newMutableDBLPOpts is newMutableDBLP with caller-controlled options
// (WALPath is filled in when unset).
func newMutableDBLPOpts(t *testing.T, opts SystemOptions) *System {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	if opts.WALPath == "" {
		opts.WALPath = filepath.Join(t.TempDir(), "m.wal")
	}
	sys, err := NewSystem(WrapDatabase(db), &opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// paperRIDs collects the RIDs of every "Paper" tuple appearing anywhere
// in the result's answer trees.
func paperRIDs(res *Results) map[int64]bool {
	out := map[int64]bool{}
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.Tuple.Table == "Paper" {
			out[n.Tuple.RID] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, a := range res.Answers {
		walk(a.Tree)
	}
	return out
}

// TestWarmCarryoverKeepsUntouchedTerms: an Apply touching unrelated rows
// must leave previously cached terms hot — the publish carries the cache
// and only invalidates the batch's tokens.
func TestWarmCarryoverKeepsUntouchedTerms(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	q := Query{Text: "mohan transaction"}

	if _, err := sys.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	base := sys.CacheStats()
	if base.Hits == 0 {
		t.Fatalf("no cache hits after a repeated query: %+v", base)
	}

	// A batch whose tokens share nothing with the cached terms.
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "WarmP1", "PaperName": "zeppelin obelisk", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.WarmPublishes != base.WarmPublishes+1 {
		t.Fatalf("Apply did not publish warm: WarmPublishes %d -> %d", base.WarmPublishes, st.WarmPublishes)
	}
	if st.Epoch <= base.Epoch {
		t.Fatalf("token-touching batch did not advance the cache epoch: %d -> %d", base.Epoch, st.Epoch)
	}
	if st.Hits != base.Hits || st.Misses != base.Misses {
		t.Fatalf("publish reset the cache counters: %+v -> %+v", base, st)
	}

	// The untouched terms must still be served from the carried cache.
	if _, err := sys.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	after := sys.CacheStats()
	if after.Hits <= st.Hits {
		t.Fatalf("untouched terms went cold across the publish: hits %d -> %d (misses %d -> %d)",
			st.Hits, after.Hits, st.Misses, after.Misses)
	}
	if after.Misses != st.Misses {
		t.Fatalf("untouched terms missed after the publish: misses %d -> %d", st.Misses, after.Misses)
	}
}

// TestInvalidationNeverServesStale: a query that begins after Apply
// returns must see the batch — the touched terms (and their covering
// prefixes) are invalidated.
func TestInvalidationNeverServesStale(t *testing.T) {
	// The one search path is backward expanding search.
	t.Run("backward", func(t *testing.T) {
		sys := newMutableDBLP(t)
		ctx := context.Background()

		res, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "StaleA", "PaperName": "xylograph alpha", "Year": 2001}),
			Insert("Paper", map[string]interface{}{"PaperId": "StaleB", "PaperName": "plain beta", "Year": 2001}),
		})
		if err != nil {
			t.Fatal(err)
		}
		ridA, ridB := res.RIDs[0], res.RIDs[1]

		got, err := sys.Query(ctx, Query{Text: "xylograph"})
		if err != nil {
			t.Fatal(err)
		}
		if rids := paperRIDs(got); !rids[ridA] || rids[ridB] {
			t.Fatalf("before rotation: matches %v, want {%d}", rids, ridA)
		}
		// Cache the prefix path too, then rotate the token to the other row in
		// one batch.
		if _, err := sys.Query(ctx, Query{Text: "xylo", Prefix: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Apply(ctx, []Mutation{
			Update("Paper", ridA, map[string]interface{}{"PaperName": "plain alpha"}),
			Update("Paper", ridB, map[string]interface{}{"PaperName": "xylograph beta"}),
		}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []Query{{Text: "xylograph"}, {Text: "xylo", Prefix: true}} {
			got, err = sys.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if rids := paperRIDs(got); !rids[ridB] || rids[ridA] {
				t.Fatalf("after rotation, query %q: matches %v, want {%d}", q.Text, rids, ridB)
			}
		}
		if st := sys.CacheStats(); st.Invalidated == 0 {
			t.Fatalf("rotation invalidated no cache entries: %+v", st)
		}
	})
}

// TestCompactFoldsConcurrentTail drives Apply batches deterministically
// into Compact's build-aside window (via the test hook) covering the net
// per-row matrix — insert, text update of a tail insert, FK rewire,
// delete of a pre-existing row, insert+delete within the window, and a
// rolled-back batch — and requires the folded engine to answer exactly
// like a rebuild.
func TestCompactFoldsConcurrentTail(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()

	// Pre-tail overlay state, so the aside build has real deltas to fold.
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "TF0", "PaperName": "meridian sonnet", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}

	citesRID := liveRIDs(sys.Database(), "Cites")[0]
	var hookErr error
	sys.compactHook = func() {
		apply := func(muts ...Mutation) *ApplyResult {
			res, err := sys.Apply(ctx, muts)
			if err != nil && hookErr == nil {
				hookErr = err
			}
			return res
		}
		res := apply(
			Insert("Paper", map[string]interface{}{"PaperId": "TF1", "PaperName": "tundra cipher", "Year": 2002}),
			Insert("Author", map[string]interface{}{"AuthorId": "TFA1", "AuthorName": "lantern mosaic"}),
		)
		if hookErr != nil {
			return
		}
		tf1 := res.RIDs[0]
		// Text update of a row inserted in the same window, plus a link to it.
		apply(
			Update("Paper", tf1, map[string]interface{}{"PaperName": "tundra lantern"}),
			Insert("Writes", map[string]interface{}{"AuthorId": "TFA1", "PaperId": "TF1"}),
		)
		// Insert + delete within the window: no net change.
		res = apply(Insert("Paper", map[string]interface{}{"PaperId": "TF2", "PaperName": "ephemeral cipher", "Year": 2002}))
		if hookErr != nil {
			return
		}
		apply(Delete("Paper", res.RIDs[0]))
		// Delete a pre-existing link row.
		apply(Delete("Cites", citesRID))
		// A batch the database rejects after its first write landed: rolled
		// back, it must reach neither the tail, the WAL, the deltas nor a
		// publish.
		if _, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "TF3", "PaperName": "glacier sonnet", "Year": 2003}),
			Insert("Writes", map[string]interface{}{"AuthorId": "NoSuchAuthor", "PaperId": "TF3"}),
		}); err == nil && hookErr == nil {
			hookErr = errors.New("a batch with a dangling foreign key was accepted")
		}
	}
	err := sys.Compact()
	sys.compactHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatalf("apply during compaction: %v", hookErr)
	}
	if n := sys.PendingMutations(); n == 0 {
		t.Fatal("tail fold left no pending mutations — the window was not exercised")
	}
	queries := append([]string{"tundra lantern", "lantern mosaic", "meridian sonnet", "glacier sonnet"}, dblpQueries...)
	checkQueryParity(t, sys, queries, "after tail fold")

	// A quiet second compaction folds the tail residue away.
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := sys.PendingMutations(); n != 0 {
		t.Fatalf("%d pending mutations after quiet compaction", n)
	}
	checkQueryParity(t, sys, queries, "after quiet compaction")
}

// TestCompactCarriesWarmStateWhenUnchanged: when the overlay holds no
// structural changes and nothing lands during the build, the compacted
// base keeps the serving numbering, so the cache carries across Compact.
func TestCompactCarriesWarmStateWhenUnchanged(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	q := Query{Text: "mohan transaction"}

	// Text-only update: an index delta but no graph delta.
	paper := liveRIDs(sys.Database(), "Paper")[0]
	if _, err := sys.Apply(ctx, []Mutation{
		Update("Paper", paper, map[string]interface{}{"PaperName": "quasar cipher"}),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.CacheStats()
	if before.Hits == 0 {
		t.Fatalf("no warm state to carry: %+v", before)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Hits != before.Hits || st.Epoch != before.Epoch {
		t.Fatalf("identity compaction reset the carried cache: %+v -> %+v", before, st)
	}
	if st.WarmPublishes != before.WarmPublishes+1 {
		t.Fatalf("identity compaction did not count as a warm publish: %d -> %d",
			before.WarmPublishes, st.WarmPublishes)
	}
	if _, err := sys.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if after := sys.CacheStats(); after.Hits <= st.Hits {
		t.Fatalf("terms went cold across identity compaction: hits %d -> %d", st.Hits, after.Hits)
	}
	checkQueryParity(t, sys, dblpQueries, "after identity compaction")
}

// TestCompactWithCachingDisabledAndStore: both Compact paths, the fold
// and the rebuild a foreign write forces, must tolerate a nil match cache
// (MatchCacheBytes < 0) while StorePath asks them to harvest warm keys
// for the persisted store.
func TestCompactWithCachingDisabledAndStore(t *testing.T) {
	dir := t.TempDir()
	sys := newMutableDBLPOpts(t, SystemOptions{
		MatchCacheBytes: -1,
		StorePath:       filepath.Join(dir, "engine.store"),
		WALPath:         filepath.Join(dir, "m.wal"),
	})
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "NC1", "PaperName": "cipher mosaic", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	sys.Database().MustExec(`INSERT INTO Paper (PaperId, PaperName, Year) VALUES ('NC2', 'cipher obelisk', 2002)`)
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"cipher mosaic", "cipher obelisk"} {
		res, err := sys.Query(ctx, Query{Text: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%q: no answers with caching disabled", q)
		}
	}
	if st := sys.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache reports state: %+v", st)
	}
}

// TestWarmChurnRace interleaves Apply, Query and Compact under the race
// detector across 1000 publishes: a token rotated between two rows is
// never served stale to a query that starts after the Apply returned,
// every publish carries warm state, and the run leaks no goroutines.
func TestWarmChurnRace(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()

	res, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "ChurnA", "PaperName": "xylograph alpha", "Year": 2001}),
		Insert("Paper", map[string]interface{}{"PaperId": "ChurnB", "PaperName": "plain beta", "Year": 2001}),
	})
	if err != nil {
		t.Fatal(err)
	}
	holder, other := res.RIDs[0], res.RIDs[1]

	baseline := runtime.NumGoroutine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			texts := append([]string{"xylograph"}, dblpQueries...)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Query(ctx, Query{Text: texts[n%len(texts)]}); err != nil {
					t.Errorf("background query: %v", err)
					return
				}
			}
		}(i)
	}

	const publishes = 1000
	startStats := sys.CacheStats()
	for i := 0; i < publishes; i++ {
		if _, err := sys.Apply(ctx, []Mutation{
			Update("Paper", holder, map[string]interface{}{"PaperName": "plain title"}),
			Update("Paper", other, map[string]interface{}{"PaperName": "xylograph title"}),
		}); err != nil {
			t.Fatal(err)
		}
		holder, other = other, holder
		if i%50 == 0 {
			// Read-your-writes: this query begins after Apply returned, so
			// a stale cached match for the rotated term is a bug.
			got, err := sys.Query(ctx, Query{Text: "xylograph"})
			if err != nil {
				t.Fatal(err)
			}
			if rids := paperRIDs(got); !rids[holder] || rids[other] {
				t.Fatalf("publish %d served stale matches: %v, want {%d}", i, rids, holder)
			}
		}
		if i%250 == 249 {
			if err := sys.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	st := sys.CacheStats()
	if st.WarmPublishes-startStats.WarmPublishes < publishes {
		t.Fatalf("not every publish carried warm state: %d of %d",
			st.WarmPublishes-startStats.WarmPublishes, publishes)
	}
	// The first Compact renumbers (the setup inserts are delta nodes) and
	// legitimately restarts the cache; every Apply after it bumps the
	// carried epoch, so the final epoch counts the batches since then.
	if st.Epoch < uint64(publishes)/2 {
		t.Fatalf("epoch %d after %d token-touching batches", st.Epoch, publishes)
	}
	if st.Invalidated == 0 {
		t.Fatal("rotation invalidated nothing")
	}

	// No goroutine leak: background warmers and queriers are done.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutine leak across %d publishes: %d -> %d", publishes, baseline, n)
	}
	checkQueryParity(t, sys, append([]string{"xylograph"}, dblpQueries...), "after churn")
}

// TestCompactDoesNotBlockApply measures the contract that gives Compact
// its value: an Apply issued while Compact rebuilds must not wait for
// the build, only for the final fold+swap.
func TestCompactDoesNotBlockApply(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "NB0", "PaperName": "glacier sonnet", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var applyStall time.Duration
	var applyErr error
	sys.compactHook = func() {
		close(entered)
		<-release
	}
	done := make(chan error, 1)
	go func() { done <- sys.Compact() }()
	<-entered

	// The build phase is (artificially) still running; Apply must get
	// through regardless.
	applied := make(chan struct{})
	go func() {
		start := time.Now()
		_, applyErr = sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "NB1", "PaperName": "tundra mosaic", "Year": 2002}),
		})
		applyStall = time.Since(start)
		close(applied)
	}()
	select {
	case <-applied:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Apply blocked behind Compact's build phase")
	}
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	_ = applyStall
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sys.compactHook = nil
	checkQueryParity(t, sys, append([]string{"tundra mosaic"}, dblpQueries...), "after non-blocking compaction")
}
