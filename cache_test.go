package banks

// Race coverage for the match-set cache: every engine snapshot owns one
// cache, queries consult it on the term-resolution hot path, and Compact
// retires whole snapshots (cache included) while queries are in flight.
// Run under -race (the CI default) this pins the claim that a query never
// observes a cache from a different snapshot and the cache's internal
// locking holds up under mixed exact/prefix traffic.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
)

// newDBLPSystem loads the small synthetic DBLP bibliography through the
// public API (datagen → SQL dump → ExecScript) and builds a System over it.
func newDBLPSystem(t *testing.T, opts *SystemOptions) *System {
	t.Helper()
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := inner.DumpSQL(&dump); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.ExecScript(dump.String()); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCacheUnderConcurrentQueryAndCompact mixes Query, QueryStream and
// prefix queries (the cache's expensive path) from several goroutines
// with a Compact loop rebuilding and swapping snapshots underneath them.
func TestCacheUnderConcurrentQueryAndCompact(t *testing.T) {
	sys := newDBLPSystem(t, nil)
	queries := []Query{
		{Text: "soumen sunita"},
		{Text: "mohan"},
		{Text: "transac sunit", Prefix: true}, // exercises LookupPrefix caching
		{Text: "seltzer sunita"},
		{Text: "mini patte", Prefix: true},
	}

	const (
		workers       = 4
		iterPerWorker = 120
		compactions   = 25
	)
	var wg sync.WaitGroup
	var queriesRun atomic.Int64
	errc := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterPerWorker; i++ {
				q := queries[rng.Intn(len(queries))]
				if i%3 == 0 {
					seen := 0
					if _, err := sys.QueryStream(context.Background(), q, func(*Answer) bool {
						seen++
						return seen < 3
					}); err != nil && err != ErrStopped {
						errc <- fmt.Errorf("QueryStream(%q): %w", q.Text, err)
						return
					}
				} else {
					res, err := sys.Query(context.Background(), q)
					if err != nil {
						errc <- fmt.Errorf("Query(%q): %w", q.Text, err)
						return
					}
					if len(res.Answers) == 0 {
						errc <- fmt.Errorf("Query(%q): no answers", q.Text)
						return
					}
				}
				queriesRun.Add(1)
			}
		}(int64(w + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if err := sys.Compact(); err != nil {
				errc <- fmt.Errorf("Compact: %w", err)
				return
			}
			// Stats on whatever snapshot is current must be coherent at
			// any moment, including right after a swap.
			if st := sys.CacheStats(); st.Bytes > st.MaxBytes {
				errc <- fmt.Errorf("cache bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if queriesRun.Load() == 0 {
		t.Fatal("no queries completed")
	}
}

// TestConcurrentBurstSystem: many goroutines fire the same exact and
// prefix queries at one snapshot; every answer list must equal the
// sequential baseline, and the repeats must be served from the cache.
func TestConcurrentBurstSystem(t *testing.T) {
	sys := newDBLPSystem(t, nil)
	opts := &SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}}
	burst := []Query{
		{Text: "soumen sunita", Options: opts},
		{Text: "seltzer sunita", Options: opts},
		{Text: "surpris", Prefix: true, Options: opts},
	}
	baselines := map[string]string{}
	for _, q := range burst {
		res, err := sys.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		baselines[q.Text] = renderAnswers(res.Answers)
	}

	const workers, reps = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				q := burst[(w+r)%len(burst)]
				res, err := sys.Query(context.Background(), q)
				if err != nil {
					errc <- err
					return
				}
				if renderAnswers(res.Answers) != baselines[q.Text] {
					errc <- fmt.Errorf("burst answers for %q diverged from the baseline", q.Text)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := sys.CacheStats(); st.Hits == 0 {
		t.Error("burst of repeated queries never hit the match cache")
	}
}

// TestCacheStatsAccumulate: repeated queries against one snapshot hit the
// cache, and the public stats show it.
func TestCacheStatsAccumulate(t *testing.T) {
	sys := newDBLPSystem(t, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := sys.Query(ctx, Query{Text: "soumen sunita"}); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.CacheStats()
	if st.MaxBytes == 0 {
		t.Fatal("cache should be on by default")
	}
	if st.Hits == 0 {
		t.Errorf("no cache hits after 10 identical queries: %+v", st)
	}
	if st.HitRate() <= 0.5 {
		t.Errorf("hit rate %.2f after repeats, want > 0.5", st.HitRate())
	}
	// A rebuilding Compact swaps in a fresh cache: counters reset.
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("stats after Compact = %+v, want zeroed", st)
	}
}

// TestCacheDisabled: MatchCacheBytes < 0 turns caching off; queries still
// work and stats stay zero.
func TestCacheDisabled(t *testing.T) {
	sys := newDBLPSystem(t, &SystemOptions{MatchCacheBytes: -1})
	for i := 0; i < 3; i++ {
		res, err := sys.Query(context.Background(), Query{Text: "soumen sunita"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatal("no answers with caching disabled")
		}
	}
	if st := sys.CacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache stats = %+v, want zero", st)
	}
}

// TestCachedAndUncachedAgree: the same query against a cached and an
// uncached system returns identical answers in identical order — the
// cache is purely a latency optimization.
func TestCachedAndUncachedAgree(t *testing.T) {
	cached := newDBLPSystem(t, nil)
	uncached := newDBLPSystem(t, &SystemOptions{MatchCacheBytes: -1})
	ctx := context.Background()
	for _, q := range []Query{
		{Text: "soumen sunita"},
		{Text: "transac", Prefix: true},
		{Text: "mohan"},
	} {
		// Twice, so the second cached run is served from the cache.
		for run := 0; run < 2; run++ {
			a, err := cached.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := uncached.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Answers) != len(b.Answers) {
				t.Fatalf("query %q run %d: %d cached answers vs %d uncached", q.Text, run, len(a.Answers), len(b.Answers))
			}
			for i := range a.Answers {
				if a.Answers[i].Format() != b.Answers[i].Format() {
					t.Errorf("query %q run %d rank %d differs", q.Text, run, i+1)
				}
			}
		}
	}
}
