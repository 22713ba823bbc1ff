package banks

// The root benchmarks are CI's regression gates, not an evaluation
// harness: BenchmarkEngineBuild and BenchmarkCachedLookup run once per push
// (-benchtime 1x) to catch outright breakage of the sharded build and the
// match cache, and BenchmarkSteadyStateQuery asserts the serving path's
// zero allocs/op. The paper's §5 artifacts come from the tests
// (internal/eval's Figure 5 sweep, internal/datagen's §5.1 anecdotes) and
// end-to-end numbers from the bench/ module (bash bench/run.sh).

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
)

type benchFixture struct {
	db *sqldb.Database
	g  *graph.Graph
	ix *index.Index
}

var (
	paperOnce sync.Once
	paperFix  *benchFixture
	smallOnce sync.Once
	smallFix  *benchFixture
)

func paperFixture(b *testing.B) *benchFixture {
	b.Helper()
	paperOnce.Do(func() { paperFix = buildFixture(b, datagen.PaperScaleDBLP()) })
	if paperFix == nil {
		b.Fatal("paper fixture failed")
	}
	return paperFix
}

func smallFixture(b *testing.B) *benchFixture {
	b.Helper()
	smallOnce.Do(func() { smallFix = buildFixture(b, datagen.SmallDBLP()) })
	if smallFix == nil {
		b.Fatal("small fixture failed")
	}
	return smallFix
}

func buildFixture(b *testing.B, cfg datagen.DBLPConfig) *benchFixture {
	b.Helper()
	db, err := datagen.BuildDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{db: db, g: g, ix: ix}
}

func dblpOpts() *core.Options {
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	return o
}

// buildBenchTPCD sizes a TPC-D catalog big enough that build wall-time is
// dominated by real work (FK resolution, tokenizing, arc sorting), not
// fixed overhead: ≈100K nodes, ≈500K directed arcs.
func buildBenchTPCD() datagen.TPCDConfig {
	return datagen.TPCDConfig{
		Parts: 2000, Suppliers: 400, Customers: 1500,
		Orders: 20000, LinesPer: 4, Seed: 7,
	}
}

var (
	buildTPCDOnce sync.Once
	buildTPCDDB   *sqldb.Database
	buildTPCDErr  error
)

func buildBenchTPCDDB(b *testing.B) *sqldb.Database {
	b.Helper()
	buildTPCDOnce.Do(func() {
		buildTPCDDB, buildTPCDErr = datagen.BuildTPCD(buildBenchTPCD())
	})
	if buildTPCDErr != nil {
		b.Fatal(buildTPCDErr)
	}
	return buildTPCDDB
}

// BenchmarkEngineBuild measures the full engine derivation (graph +
// keyword index) through index.BuildEngine, the path Refresh runs, at
// several shard counts on both generators. shards-0 is the production
// default (GOMAXPROCS). The graph-shards-1 and index-shards-1 variants
// time the pipeline's two halves alone on one worker each: the graph's
// Number + Link, and the index build over a built graph.
func BenchmarkEngineBuild(b *testing.B) {
	datasets := []struct {
		name string
		db   func(b *testing.B) *sqldb.Database
	}{
		{"dblp", func(b *testing.B) *sqldb.Database { return paperFixture(b).db }},
		{"tpcd", buildBenchTPCDDB},
	}
	for _, ds := range datasets {
		for _, shards := range []int{1, 2, 4, 0} {
			b.Run(ds.name+"/"+benchName("shards", shards), func(b *testing.B) {
				db := ds.db(b)
				bo := graph.DefaultBuildOptions()
				bo.Shards = shards
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g, ix, err := index.BuildEngine(db, bo)
					if err != nil {
						b.Fatal(err)
					}
					if g.NumNodes() == 0 || ix.NumTerms() == 0 {
						b.Fatal("degenerate engine")
					}
				}
			})
		}
		one := graph.DefaultBuildOptions()
		one.Shards = 1
		b.Run(ds.name+"/graph-shards-1", func(b *testing.B) {
			db := ds.db(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g, err := graph.Build(db, one); err != nil || g.NumNodes() == 0 {
					b.Fatal("degenerate graph", err)
				}
			}
		})
		b.Run(ds.name+"/index-shards-1", func(b *testing.B) {
			db := ds.db(b)
			g, err := graph.Build(db, one)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: 1}); err != nil || ix.NumTerms() == 0 {
					b.Fatal("degenerate index", err)
				}
			}
		})
	}
}

// BenchmarkCachedLookup measures term resolution on a skewed workload
// with and without the match cache. The prefix variants are the headline:
// an uncached prefix lookup walks the whole vocabulary, a cached repeat is
// one map probe. Hit rate is reported as a metric.
func BenchmarkCachedLookup(b *testing.B) {
	f := paperFixture(b)
	terms := datagen.ZipfTerms(1<<14, 42)

	b.Run("exact-uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.ix.Lookup(terms[i%len(terms)])
		}
	})
	b.Run("exact-cached", func(b *testing.B) {
		c := index.NewMatchCache(4 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = c.Lookup(f.ix, 0, terms[i%len(terms)])
		}
		b.ReportMetric(c.Stats().HitRate(), "hit-rate")
	})
	b.Run("prefix-uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ns := f.ix.LookupPrefix(terms[i%len(terms)][:4]); len(ns) == 0 {
				b.Fatal("no prefix matches")
			}
		}
	})
	b.Run("prefix-cached", func(b *testing.B) {
		c := index.NewMatchCache(4 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ns := c.LookupPrefix(f.ix, 0, terms[i%len(terms)][:4]); len(ns) == 0 {
				b.Fatal("no prefix matches")
			}
		}
		b.ReportMetric(c.Stats().HitRate(), "hit-rate")
	})
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "-0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "-" + string(buf[i:])
}

// BenchmarkSteadyStateQuery is the allocation-discipline gate of the
// serving path: a warm Session over a memory-mapped store-opened engine
// (match cache attached, the production configuration) must answer
// repeated queries with zero heap allocations per operation — every
// per-query structure comes from the session's arena, and every byte of
// graph and index state is served as a view over the mapping. CI asserts
// allocs/op == 0.
func BenchmarkSteadyStateQuery(b *testing.B) {
	f := smallFixture(b)
	path := filepath.Join(b.TempDir(), "steady.bstore")
	if err := store.WriteFile(path, store.Engine{Graph: f.g, Index: f.ix}); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := core.NewSearcher(st.Graph(), st.Index()).WithMatchCache(index.NewMatchCache(8 << 20))
	sess := s.NewSession()
	defer sess.Close()
	opts := dblpOpts()
	req := core.Request{Terms: []string{"soumen", "sunita"}}
	// Warm: fault the segments, populate the match cache, grow the arena
	// to its steady-state high-water mark.
	for i := 0; i < 3; i++ {
		answers, _, err := sess.Query(context.Background(), req, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) == 0 {
			b.Fatal("no answers")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Query(context.Background(), req, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}
