package banks

// The benchmark harness regenerates every experimental artifact of the
// paper's evaluation (Section 5). One benchmark per table/figure, per the
// experiment index in DESIGN.md:
//
//	E1 BenchmarkFigure2QuerySoumenSunita — the Figure 2 query
//	E2 BenchmarkAnecdoteQueries          — §5.1 anecdote queries
//	E3 BenchmarkGraphMemory              — §5.2 space (bytes metrics)
//	E4 BenchmarkGraphLoad                — §5.2 graph load time
//	E5 BenchmarkQueryClasses             — §5.2 latency over 7 query classes
//	E6 BenchmarkFigure5Sweep             — Figure 5 parameter sweep
//	E7 BenchmarkFullParameterSweep       — extended 8-combination sweep
//	A1 BenchmarkSteinerExactVsHeuristic  — exact Steiner vs backward search
//	A2 BenchmarkHeapSizeAblation         — output-heap size vs latency
//	A3 BenchmarkBackEdgeScalingAblation  — §2.1 indegree scaling on/off
//	A4 BenchmarkProximityBaseline        — Goldman-style baseline vs BANKS
//
// Paper-scale fixtures (≈100K nodes / 300K edges) are built once and
// shared; the sweeps use the small dataset so a full -bench=. run stays
// tractable.

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/steiner"
	"github.com/banksdb/banks/internal/store"
)

type benchFixture struct {
	db *sqldb.Database
	g  *graph.Graph
	ix *index.Index
	s  *core.Searcher
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
	return &benchFixture{db: db, g: g, ix: ix, s: core.NewSearcher(g, ix)}
}

func dblpOpts() *core.Options {
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	return o
}

// --- E1: Figure 2 ---

// BenchmarkFigure2QuerySoumenSunita times the query whose result the paper
// shows in Figure 2, on the paper-scale (≈100K node) graph.
func BenchmarkFigure2QuerySoumenSunita(b *testing.B) {
	f := paperFixture(b)
	opts := dblpOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, err := f.s.Search([]string{"soumen", "sunita"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// --- E2: §5.1 anecdotes ---

func BenchmarkAnecdoteQueries(b *testing.B) {
	queries := map[string][]string{
		"mohan":          {"mohan"},
		"transaction":    {"transaction"},
		"soumen-sunita":  {"soumen", "sunita"},
		"seltzer-sunita": {"seltzer", "sunita"},
	}
	for name, terms := range queries {
		b.Run(name, func(b *testing.B) {
			f := paperFixture(b)
			opts := dblpOpts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.s.Search(terms, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: §5.2 space ---

// BenchmarkGraphMemory reports the size metrics of the §5.2 space
// experiment: the paper measured ~120 MB for a 100K node / 300K edge graph
// in Java; the bytes/node metric makes the comparison hardware-neutral.
func BenchmarkGraphMemory(b *testing.B) {
	f := paperFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.g.MemoryFootprint()
	}
	b.ReportMetric(float64(f.g.NumNodes()), "nodes")
	b.ReportMetric(float64(f.g.NumArcs()), "arcs")
	b.ReportMetric(float64(f.g.MemoryFootprint()), "graph-bytes")
	b.ReportMetric(float64(f.g.MemoryFootprint())/float64(f.g.NumNodes()), "bytes/node")
}

// --- E4: §5.2 load time ---

// BenchmarkGraphLoad times building the data graph from the database (the
// paper: ~2 minutes for the Java prototype at this scale).
func BenchmarkGraphLoad(b *testing.B) {
	f := paperFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.Build(f.db, nil)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkIndexBuild times keyword index construction, the other half of
// the load pipeline.
func BenchmarkIndexBuild(b *testing.B) {
	f := paperFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := index.Build(f.db, f.g)
		if err != nil {
			b.Fatal(err)
		}
		if ix.NumTerms() == 0 {
			b.Fatal("empty index")
		}
	}
}

// --- E5: §5.2 query latency by class ---

func BenchmarkQueryClasses(b *testing.B) {
	classes := []struct {
		name  string
		terms []string
	}{
		{"coauthor-pair", []string{"soumen", "sunita"}},
		{"common-coauthor", []string{"seltzer", "sunita"}},
		{"author-and-title", []string{"gray", "concepts"}},
		{"title-words", []string{"mining", "surprising", "patterns"}},
		{"single-author", []string{"mohan"}},
		{"single-title-word", []string{"transaction"}},
		{"three-coauthors", []string{"soumen", "sunita", "byron"}},
	}
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) {
			f := paperFixture(b)
			opts := dblpOpts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.s.Search(c.terms, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: Figure 5 ---

// BenchmarkFigure5Sweep runs the whole λ × EdgeLog sweep (7 queries × 10
// parameter settings) on the small dataset and reports the best and worst
// scaled error alongside the timing.
func BenchmarkFigure5Sweep(b *testing.B) {
	f := smallFixture(b)
	queries, err := eval.DBLPSuite(f.db, f.g)
	if err != nil {
		b.Fatal(err)
	}
	var points []eval.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err = eval.SweepFigure5(f.s, queries, dblpOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	best, worst := points[0].Scaled, points[0].Scaled
	for _, p := range points {
		if p.Scaled < best {
			best = p.Scaled
		}
		if p.Scaled > worst {
			worst = p.Scaled
		}
	}
	b.ReportMetric(best, "best-error")
	b.ReportMetric(worst, "worst-error")
}

// --- E7: extended sweep ---

func BenchmarkFullParameterSweep(b *testing.B) {
	f := smallFixture(b)
	queries, err := eval.DBLPSuite(f.db, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.SweepFull(f.s, queries, dblpOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: exact Steiner vs heuristic ---

func BenchmarkSteinerExactVsHeuristic(b *testing.B) {
	f := smallFixture(b)
	soumen := f.ix.Lookup("soumen").Nodes
	sunita := f.ix.Lookup("sunita").Nodes
	if len(soumen) == 0 || len(sunita) == 0 {
		b.Fatal("missing terminals")
	}
	b.Run("exact-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, _, err := steiner.MinConnectionTree(f.g, [][]graph.NodeID{soumen, sunita})
			if err != nil {
				b.Fatal(err)
			}
			if w <= 0 {
				b.Fatal("degenerate weight")
			}
		}
	})
	b.Run("backward-expanding", func(b *testing.B) {
		opts := dblpOpts()
		opts.Score = core.ScoreOptions{Lambda: 0}
		for i := 0; i < b.N; i++ {
			if _, err := f.s.Search([]string{"soumen", "sunita"}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A2: output heap size ---

func BenchmarkHeapSizeAblation(b *testing.B) {
	for _, size := range []int{1, 10, 20, 100} {
		b.Run(benchName("heap", size), func(b *testing.B) {
			f := paperFixture(b)
			opts := dblpOpts()
			opts.HeapSize = size
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.s.Search([]string{"soumen", "sunita"}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A3: backward-edge indegree scaling ---

func BenchmarkBackEdgeScalingAblation(b *testing.B) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		b.Fatal(err)
	}
	for _, scaled := range []bool{true, false} {
		name := "scaled"
		if !scaled {
			name = "unscaled"
		}
		b.Run(name, func(b *testing.B) {
			g, err := graph.Build(db, &graph.BuildOptions{ScaleBackEdges: scaled})
			if err != nil {
				b.Fatal(err)
			}
			ix, err := index.Build(db, g)
			if err != nil {
				b.Fatal(err)
			}
			s := core.NewSearcher(g, ix)
			opts := dblpOpts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Search([]string{"seltzer", "sunita"}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A4: Goldman proximity baseline ---

func BenchmarkProximityBaseline(b *testing.B) {
	f := paperFixture(b)
	soumen := f.ix.Lookup("soumen").Nodes
	sunita := f.ix.Lookup("sunita").Nodes
	b.Run("goldman-proximity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := steiner.ProximitySearch(f.g, "Paper", [][]graph.NodeID{soumen, sunita}, 10)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("banks", func(b *testing.B) {
		opts := dblpOpts()
		for i := 0; i < b.N; i++ {
			if _, err := f.s.Search([]string{"soumen", "sunita"}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- core search allocation benchmarks ---

// BenchmarkSearch* measure the per-query cost of the backward expanding
// search on both generators; ReportAllocs makes allocs/op visible so the
// dense, pooled per-query state can be compared against the old
// map-per-iterator core (results recorded in BENCH_core.json).

func BenchmarkSearchDBLPTwoTerm(b *testing.B) {
	f := paperFixture(b)
	opts := dblpOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"soumen", "sunita"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchDBLPThreeTerm(b *testing.B) {
	f := paperFixture(b)
	opts := dblpOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"soumen", "sunita", "byron"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchDBLPSingleTerm(b *testing.B) {
	f := paperFixture(b)
	opts := dblpOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"mohan"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDBLPMetadata mixes a metadata term (matching a whole
// relation, capped by MetadataNodeLimit) with a data term — the paper's §7
// worst case for iterator count.
func BenchmarkSearchDBLPMetadata(b *testing.B) {
	f := paperFixture(b)
	opts := dblpOpts()
	opts.MetadataNodeLimit = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"author", "sunita"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	tpcdOnce sync.Once
	tpcdFix  *benchFixture
	tpcdErr  error
)

func tpcdFixture(b *testing.B) *benchFixture {
	b.Helper()
	tpcdOnce.Do(func() {
		db, err := datagen.BuildTPCD(datagen.SmallTPCD())
		if err != nil {
			tpcdErr = err
			return
		}
		g, err := graph.Build(db, nil)
		if err != nil {
			tpcdErr = err
			return
		}
		ix, err := index.Build(db, g)
		if err != nil {
			tpcdErr = err
			return
		}
		tpcdFix = &benchFixture{db: db, g: g, ix: ix, s: core.NewSearcher(g, ix)}
	})
	if tpcdFix == nil {
		b.Fatalf("tpcd fixture failed: %v", tpcdErr)
	}
	return tpcdFix
}

func BenchmarkSearchTPCDTwoTerm(b *testing.B) {
	f := tpcdFixture(b)
	opts := core.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"steel", "widget"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchTPCDThreeTerm(b *testing.B) {
	f := tpcdFixture(b)
	opts := core.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.s.Search([]string{"premium", "steel", "widget"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

func BenchmarkDatasetBuildSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datagen.BuildDBLP(datagen.SmallDBLP()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeywordLookup(b *testing.B) {
	f := paperFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := f.ix.Lookup("transaction"); len(m.Nodes) == 0 {
			b.Fatal("no matches")
		}
	}
}

// --- parallel engine build + match cache (regression harness) ---

// The engine-build and cached-lookup benchmarks guard the parallel
// sharded build and the match-set cache: BENCH_build.json records their
// trajectory, and CI runs them once per push (-benchtime 1x) so a
// regression that breaks them outright fails the build.

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
// keyword index) at several shard counts on both generators. shards-0 is
// the production default (GOMAXPROCS).
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
				io := &index.BuildOptions{Shards: shards}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g, err := graph.Build(db, bo)
					if err != nil {
						b.Fatal(err)
					}
					ix, err := index.BuildWithOptions(db, g, io)
					if err != nil {
						b.Fatal(err)
					}
					if g.NumNodes() == 0 || ix.NumTerms() == 0 {
						b.Fatal("degenerate engine")
					}
				}
			})
		}
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

// BenchmarkCachedQuerySkewed runs whole single-term prefix queries over
// the skewed stream through a cached and an uncached searcher — the
// user-visible latency effect of the cache.
func BenchmarkCachedQuerySkewed(b *testing.B) {
	f := paperFixture(b)
	terms := datagen.ZipfTerms(1<<14, 99)
	opts := dblpOpts()
	run := func(b *testing.B, s *core.Searcher) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := core.Request{Terms: []string{terms[i%len(terms)][:4]}, Prefix: true}
			if _, _, err := s.Query(context.Background(), req, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		run(b, core.NewSearcher(f.g, f.ix))
	})
	b.Run("cached", func(b *testing.B) {
		c := index.NewMatchCache(4 << 20)
		s := core.NewSearcher(f.g, f.ix).WithMatchCache(c)
		run(b, s)
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
