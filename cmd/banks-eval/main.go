// Command banks-eval regenerates the paper's evaluation artifacts:
//
//	-figure5     the Figure 5 error-score surface (λ × edge log-scaling)
//	-full        the extended sweep over all eight §2.3 combinations
//	-anecdotes   the §5.1 anecdote queries with their top answers
//	-space       the §5.2 graph size / memory experiment
//	-latency     the §5.2 query latency experiment (7 query classes)
//	-buildbench  the parallel-build shard sweep and the match-cache
//	             skewed-workload experiment (the BENCH_build.json data)
//	-mutate N    apply N live-mutation batches through the WAL-backed
//	             overlay: Apply latency vs full Refresh, query latency
//	             under churn, overlay-vs-rebuild parity, post-Compact
//	             steady state (the BENCH_wal.json data)
//	-save PATH   build the DBLP engine and persist it as a segmented
//	             disk store (internal/store format)
//	-load PATH   open a saved store and report cold-open vs rebuild
//	             time plus query parity (the BENCH_store.json data);
//	             -storebudget bounds resident posting blocks
//	-clusterbench  the distributed-serving bench: §5.2 classes through
//	             the scatter-gather cluster at N=1,2,4 partitions vs
//	             the single engine, plus the broker's routing prune
//	             rate (the BENCH_cluster.json data)
//
// -loadtest with -partitions N splits the store into N partitions and
// drives the same front door over the scatter-gather cluster
// (Cluster.ServeHandler) instead of over the single engine, with the same
// client driver and the same -maxp99/-maxshed gates.
//
// By default it runs everything at -scale small; -scale paper uses the
// 100K-node / 300K-edge configuration of the paper. -shards caps the
// build parallelism of the main experiments (0 = GOMAXPROCS).
// -buildbench reports the process peak RSS so memory-bounded serving
// shows up in recorded benchmarks.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
)

func main() {
	figure5 := flag.Bool("figure5", false, "run the Figure 5 parameter sweep")
	full := flag.Bool("full", false, "run the extended 8-combination sweep")
	anecdotes := flag.Bool("anecdotes", false, "run the §5.1 anecdote queries")
	space := flag.Bool("space", false, "run the §5.2 space experiment")
	latency := flag.Bool("latency", false, "run the §5.2 latency experiment")
	buildbench := flag.Bool("buildbench", false, "run the parallel-build and match-cache experiments")
	scale := flag.String("scale", "small", "dataset scale: small or paper")
	shards := flag.Int("shards", 0, "build shard cap (0 = GOMAXPROCS, 1 = serial)")
	mutate := flag.Int("mutate", 0, "run N live-mutation batches: Apply latency vs Refresh, query-under-churn parity (the BENCH_wal.json data)")
	savePath := flag.String("save", "", "persist the built DBLP engine to this store path and exit")
	loadPath := flag.String("load", "", "open a saved store: report cold-open vs rebuild time and parity")
	storeBudget := flag.Int64("storebudget", 0, "resident posting-block budget for -load/-loadtest (bytes; 0 = unbounded)")
	prefault := flag.Bool("prefault", false, "with -load: touch every mapped store page up front (trade open latency for no first-query faults)")
	mlock := flag.Bool("mlock", false, "with -load: pin the mapped store in RAM (needs RLIMIT_MEMLOCK headroom)")
	layout := flag.String("layout", "", "graph node-id layout for -save/-load builds: \"\"/rid (insertion order) or degree (hubs first)")
	loadtest := flag.Bool("loadtest", false, "drive the production front door under load (the BENCH_serve.json data)")
	ltDuration := flag.Duration("ltduration", 10*time.Second, "loadtest length")
	ltWorkers := flag.Int("ltworkers", 16, "loadtest closed-loop concurrency")
	ltRate := flag.Int("ltrate", 0, "loadtest open-loop arrival rate (req/s; 0 = closed loop)")
	ltInFlight := flag.Int("ltinflight", 8, "loadtest admission gate worker slots")
	ltQueue := flag.Int("ltqueue", 16, "loadtest admission gate queue depth")
	ltTimeout := flag.Duration("lttimeout", 5*time.Second, "loadtest server-side search deadline bounding the tail (0 = unbounded)")
	ltChurn := flag.Bool("ltchurn", true, "run background Apply/Refresh churn during the loadtest")
	ltApplyEvery := flag.Duration("ltapplyevery", 20*time.Millisecond, "loadtest churn Apply cadence (each Apply republishes the snapshot)")
	ltMaxP99 := flag.Duration("maxp99", 0, "fail the loadtest if client p99 exceeds this (0 = no check)")
	ltMaxShed := flag.Float64("maxshed", -1, "fail the loadtest if the shed rate exceeds this fraction (negative = no check)")
	ltMinHit := flag.Float64("minhitrate", 0, "fail the loadtest if the steady-state match-cache hit rate falls below this fraction (0 = no check)")
	ltJSON := flag.String("ltjson", "", "write the loadtest summary JSON to this path")
	partitions := flag.Int("partitions", 0, "with -loadtest: split the store into N partitions and drive the distributed front door")
	clusterBench := flag.Bool("clusterbench", false, "run the distributed-serving bench: distributed vs single-engine latency at N=1,2,4 and routing prune rate (the BENCH_cluster.json data)")
	cbJSON := flag.String("cbjson", "", "write the -clusterbench summary JSON to this path")
	flag.Parse()
	all := !*figure5 && !*full && !*anecdotes && !*space && !*latency && !*buildbench

	// Interrupt cancels the context; every query below stops promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *savePath != "" {
		runSave(*scale, *shards, *layout, *savePath)
		return
	}
	if *loadPath != "" {
		runLoad(ctx, *scale, *shards, *layout, *loadPath, *storeBudget, *prefault, *mlock)
		return
	}
	if *mutate > 0 {
		runMutate(ctx, *scale, *mutate)
		return
	}
	if *clusterBench {
		runClusterBench(ctx, *scale, *cbJSON)
		return
	}
	if *loadtest && *partitions > 0 {
		runClusterLoadTest(ctx, loadTestConfig{
			Scale:        *scale,
			Duration:     *ltDuration,
			Workers:      *ltWorkers,
			Rate:         *ltRate,
			MaxInFlight:  *ltInFlight,
			MaxQueue:     *ltQueue,
			QueueTimeout: 2 * time.Second,
			Timeout:      *ltTimeout,
			StoreBudget:  *storeBudget,
			MaxP99:       *ltMaxP99,
			MaxShedRate:  *ltMaxShed,
		}, *partitions)
		return
	}
	if *loadtest {
		runLoadTest(ctx, loadTestConfig{
			Scale:        *scale,
			Duration:     *ltDuration,
			Workers:      *ltWorkers,
			Rate:         *ltRate,
			MaxInFlight:  *ltInFlight,
			MaxQueue:     *ltQueue,
			QueueTimeout: 2 * time.Second,
			Timeout:      *ltTimeout,
			StoreBudget:  *storeBudget,
			Churn:        *ltChurn,
			ApplyEvery:   *ltApplyEvery,
			MaxP99:       *ltMaxP99,
			MaxShedRate:  *ltMaxShed,
			MinHitRate:   *ltMinHit,
			JSONPath:     *ltJSON,
		})
		return
	}

	if *buildbench {
		runBuildBench(ctx, *scale)
		return
	}

	cfg := datagen.SmallDBLP()
	if *scale == "paper" {
		cfg = datagen.PaperScaleDBLP()
	}
	fmt.Printf("== building DBLP dataset (%s scale, %d shards) ==\n", *scale, *shards)
	db, err := datagen.BuildDBLP(cfg)
	check(err)
	bo := graph.DefaultBuildOptions()
	bo.Shards = *shards
	start := time.Now()
	g, err := graph.Build(db, bo)
	check(err)
	buildTime := time.Since(start)
	ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: *shards})
	check(err)
	s := newCachedSearcher(g, ix)
	fmt.Printf("%s, %d index terms; graph built in %v\n\n", g, ix.NumTerms(), buildTime)

	if all || *space {
		runSpace(g, buildTime)
	}
	if all || *anecdotes {
		runAnecdotes(ctx, db, s)
	}
	if all || *latency {
		runLatency(ctx, s)
	}
	if all || *figure5 {
		runFigure5(db, g, s)
	}
	if *full {
		runFull(db, g, s)
	}
}

// buildDataset regenerates the DBLP database at the given scale.
func buildDataset(scale string) *sqldb.Database {
	cfg := datagen.SmallDBLP()
	if scale == "paper" {
		cfg = datagen.PaperScaleDBLP()
	}
	db, err := datagen.BuildDBLP(cfg)
	check(err)
	return db
}

// buildEngine derives graph + index from db, timed.
func buildEngine(db *sqldb.Database, shards int, layout string) (*graph.Graph, *index.Index, time.Duration) {
	bo := graph.DefaultBuildOptions()
	bo.Shards = shards
	bo.LayoutOrder = layout
	start := time.Now()
	g, err := graph.Build(db, bo)
	check(err)
	ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: shards})
	check(err)
	return g, ix, time.Since(start)
}

// runSave builds the DBLP engine and persists it as a segmented store.
func runSave(scale string, shards int, layout, path string) {
	fmt.Printf("== build + save DBLP engine (%s scale, layout %q) ==\n", scale, layout)
	db := buildDataset(scale)
	g, ix, buildTime := buildEngine(db, shards, layout)
	start := time.Now()
	check(store.WriteFile(path, store.Engine{Graph: g, Index: ix}))
	saveTime := time.Since(start)
	fi, err := os.Stat(path)
	check(err)
	fmt.Printf("engine            %s, %d index terms\n", g, ix.NumTerms())
	fmt.Printf("graph+index build %v\n", buildTime)
	fmt.Printf("store save        %v (%.1f MB at %s)\n", saveTime, float64(fi.Size())/1e6, path)
}

// runLoad opens a saved store and reports the numbers behind
// BENCH_store.json: cold-open time vs a fresh rebuild from SQL, query
// parity between both engines, and the resident footprint of the lazy
// segments (with -storebudget, the EMBANKS memory-bounded mode).
func runLoad(ctx context.Context, scale string, shards int, layout, path string, budget int64, prefault, mlock bool) {
	fmt.Printf("== cold open vs rebuild (%s scale, budget %d bytes, layout %q) ==\n", scale, budget, layout)
	db := buildDataset(scale)

	openStart := time.Now()
	st, err := store.Open(path, store.Options{BudgetBytes: budget})
	check(err)
	defer st.Close()
	if prefault {
		check(st.Prefault())
	}
	if mlock {
		check(st.Mlock())
	}
	openTime := time.Since(openStart)
	fmt.Printf("byte source       mapped=%v prefault=%v mlock=%v\n", st.Mapped(), prefault, mlock)

	g, ix, rebuildTime := buildEngine(db, shards, layout)
	fmt.Printf("cold open         %v\n", openTime)
	fmt.Printf("rebuild from SQL  %v  (%.1fx slower than open)\n",
		rebuildTime, float64(rebuildTime)/float64(openTime))

	// First-query cost (faults the arcs, node metadata and dictionary in)
	// versus warm queries, and parity against the rebuilt engine.
	stored := newCachedSearcher(st.Graph(), st.Index())
	fresh := newCachedSearcher(g, ix)
	opts := eval.DefaultDBLPOptions()
	minfltBefore, majfltBefore := pageFaults()
	firstStart := time.Now()
	_, _, err = stored.Query(ctx, core.Request{Terms: latencyClasses[0].terms}, opts, nil)
	check(err)
	check(st.Err()) // a lazy-load fault degrades to empty results; fail on it here
	firstQuery := time.Since(firstStart)
	minfltAfter, majfltAfter := pageFaults()
	fmt.Printf("first query       %v (lazy segment faults included)\n", firstQuery)
	if minfltBefore >= 0 {
		fmt.Printf("page faults       %d minor + %d major during the first query\n",
			minfltAfter-minfltBefore, majfltAfter-majfltBefore)
	}
	for _, c := range latencyClasses {
		a1, _, err := stored.Query(ctx, core.Request{Terms: c.terms}, opts, nil)
		check(err)
		check(st.Err())
		a2, _, err := fresh.Query(ctx, core.Request{Terms: c.terms}, opts, nil)
		check(err)
		if len(a1) != len(a2) {
			check(fmt.Errorf("parity failure on %q: %d vs %d answers", c.name, len(a1), len(a2)))
		}
		for i := range a1 {
			if a1[i].Score != a2[i].Score || a1[i].Root != a2[i].Root {
				check(fmt.Errorf("parity failure on %q at rank %d", c.name, i+1))
			}
		}
	}
	fmt.Printf("query parity      ok (%d classes, scores and roots identical)\n", len(latencyClasses))
	stats := st.Stats()
	fmt.Printf("resident          %.2f MB heap structural + %.2f MB mapped + %.2f MB posting blocks (%d entries, budget %d)\n",
		float64(stats.StructuralBytes)/1e6, float64(stats.MappedBytes)/1e6,
		float64(stats.BlockBytes)/1e6, stats.BlockEntries, stats.BudgetBytes)
	printPeakRSS()
}

// pageFaults reads the process's cumulative minor and major page-fault
// counts from /proc/self/stat (fields 10 and 12), or (-1, -1) where /proc
// is unavailable. Major faults are the ones that hit the disk — the cost
// -prefault exists to move out of the first query.
func pageFaults() (minflt, majflt int64) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return -1, -1
	}
	// The comm field (2) is an arbitrary string in parens; fields count
	// from the closing paren to survive spaces in it.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return -1, -1
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is stat field 3 (state); minflt is field 10, majflt 12.
	if len(fields) < 10 {
		return -1, -1
	}
	minflt, err = strconv.ParseInt(fields[7], 10, 64)
	if err != nil {
		return -1, -1
	}
	majflt, err = strconv.ParseInt(fields[9], 10, 64)
	if err != nil {
		return -1, -1
	}
	return minflt, majflt
}

// printPeakRSS reports the process high-water resident set size.
func printPeakRSS() {
	if rss := serve.PeakRSSBytes(); rss > 0 {
		fmt.Printf("peak RSS          %.1f MB\n", float64(rss)/1e6)
	} else {
		fmt.Println("peak RSS          n/a on this platform")
	}
}

// newCachedSearcher wires a searcher with a match cache over one engine
// snapshot.
func newCachedSearcher(g *graph.Graph, ix *index.Index) *core.Searcher {
	return core.NewSearcher(g, ix).WithMatchCache(index.NewMatchCache(4 << 20))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSpace reproduces §5.2: the paper reports ~120 MB and ~2 min load for
// a 100K node / 300K edge graph in Java.
func runSpace(g *graph.Graph, buildTime time.Duration) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	fmt.Println("== E3/E4: space and load time (paper §5.2) ==")
	fmt.Printf("nodes               %d\n", g.NumNodes())
	fmt.Printf("directed edges      %d\n", g.NumArcs())
	fmt.Printf("graph structures    %.1f MB (estimated)\n", float64(g.MemoryFootprint())/1e6)
	fmt.Printf("process heap        %.1f MB (incl. database + index)\n", float64(ms.HeapAlloc)/1e6)
	fmt.Printf("graph build time    %v\n", buildTime)
	fmt.Printf("paper (Java)        ~120 MB, ~2 min load for 100K nodes/300K edges\n\n")
}

func runAnecdotes(ctx context.Context, db *sqldb.Database, s *core.Searcher) {
	fmt.Println("== E2: §5.1 anecdotes (DBLP) ==")
	opts := eval.DefaultDBLPOptions()
	for _, q := range [][]string{
		{"mohan"},
		{"transaction"},
		{"soumen", "sunita"},
		{"seltzer", "sunita"},
	} {
		fmt.Printf("query %q:\n", q)
		answers, _, err := s.Query(ctx, core.Request{Terms: q}, opts, nil)
		check(err)
		for i, a := range answers {
			if i >= 3 {
				break
			}
			fmt.Printf("  %d. (%.4f) %s", a.Rank, a.Score, headline(db, s, a))
		}
		fmt.Println()
	}

	fmt.Println("thesis dataset anecdotes:")
	tdb, err := datagen.BuildThesis(datagen.SmallThesis())
	check(err)
	tg, err := graph.Build(tdb, nil)
	check(err)
	tix, err := index.Build(tdb, tg)
	check(err)
	ts := core.NewSearcher(tg, tix)
	for _, q := range [][]string{{"computer", "engineering"}, {"sudarshan", "aditya"}} {
		fmt.Printf("query %q:\n", q)
		answers, _, err := ts.Query(ctx, core.Request{Terms: q}, core.DefaultOptions(), nil)
		check(err)
		for i, a := range answers {
			if i >= 3 {
				break
			}
			fmt.Printf("  %d. (%.4f) %s", a.Rank, a.Score, headline(tdb, ts, a))
		}
		fmt.Println()
	}
}

// headline prints the root tuple of an answer on one line.
func headline(db *sqldb.Database, s *core.Searcher, a *core.Answer) string {
	g := s.Graph()
	t := db.Table(g.TableNameOf(a.Root))
	row := t.Row(g.RIDOf(a.Root))
	line := g.TableNameOf(a.Root) + "("
	for i, c := range t.Schema().Columns {
		if i > 0 {
			line += ", "
		}
		line += c.Name + "=" + row[i].String()
	}
	return line + fmt.Sprintf(") [%d nodes]\n", len(a.Nodes()))
}

// runLatency reproduces the §5.2 observation that queries take "about a
// second to a few seconds" on the paper's hardware; ours should be far
// faster, but the per-class breakdown is the comparable artifact.
var latencyClasses = []struct {
	name  string
	terms []string
}{
	{"coauthor pair", []string{"soumen", "sunita"}},
	{"common coauthor", []string{"seltzer", "sunita"}},
	{"author + title word", []string{"gray", "concepts"}},
	{"title words", []string{"mining", "surprising", "patterns"}},
	{"single author", []string{"mohan"}},
	{"single title word", []string{"transaction"}},
	{"three coauthors", []string{"soumen", "sunita", "byron"}},
}

func runLatency(ctx context.Context, s *core.Searcher) {
	fmt.Println("== E5: §5.2 query latency by class ==")
	opts := eval.DefaultDBLPOptions()
	for _, c := range latencyClasses {
		start := time.Now()
		const reps = 5
		var answers []*core.Answer
		var err error
		for i := 0; i < reps; i++ {
			answers, _, err = s.Query(ctx, core.Request{Terms: c.terms}, opts, nil)
			check(err)
		}
		fmt.Printf("%-22s %8v/query  (%d answers)\n", c.name, time.Since(start)/reps, len(answers))
	}
	fmt.Println()
}

func runFigure5(db *sqldb.Database, g *graph.Graph, s *core.Searcher) {
	fmt.Println("== E6: Figure 5 — scaled error vs parameter choices ==")
	queries, err := eval.DBLPSuite(db, g)
	check(err)
	points, err := eval.SweepFigure5(s, queries, eval.DefaultDBLPOptions())
	check(err)
	fmt.Print(eval.FormatFigure5(points))
	best := eval.Best(points)
	fmt.Printf("best setting: lambda=%.1f EdgeLog=%v (error %.1f)\n", best.Lambda, best.EdgeLog, best.Scaled)
	fmt.Println("paper: lambda=0.2 with edge log-scaling best (error ~0); lambda=1 worst (~15)")
	fmt.Println()
}

// runBuildBench produces the BENCH_build.json data: graph+index build
// wall-time at several shard counts on both generators, and the match
// cache's hit rate and lookup latency on a Zipf-skewed term workload.
// Ctrl-C (which cancels ctx) stops the sweep between build repetitions.
func runBuildBench(ctx context.Context, scale string) {
	fmt.Printf("== parallel engine build (host: %d CPUs, GOMAXPROCS %d) ==\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))

	dblpCfg := datagen.SmallDBLP()
	if scale == "paper" {
		dblpCfg = datagen.PaperScaleDBLP()
	}
	tpcdCfg := datagen.TPCDConfig{Parts: 2000, Suppliers: 400, Customers: 1500, Orders: 20000, LinesPer: 4, Seed: 7}

	datasets := []struct {
		name  string
		build func() (*sqldb.Database, error)
	}{
		{"dblp", func() (*sqldb.Database, error) { return datagen.BuildDBLP(dblpCfg) }},
		{"tpcd", func() (*sqldb.Database, error) { return datagen.BuildTPCD(tpcdCfg) }},
	}
	shardCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, ds := range datasets {
		db, err := ds.build()
		check(err)
		for _, sh := range shardCounts {
			bo := graph.DefaultBuildOptions()
			bo.Shards = sh
			best := time.Duration(0)
			var nodes, arcs, terms int
			const reps = 3
			for r := 0; r < reps; r++ {
				check(ctx.Err())
				start := time.Now()
				g, err := graph.Build(db, bo)
				check(err)
				ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: sh})
				check(err)
				el := time.Since(start)
				if best == 0 || el < best {
					best = el
				}
				nodes, arcs, terms = g.NumNodes(), g.NumArcs(), ix.NumTerms()
			}
			fmt.Printf("%-5s shards=%-2d  build %10v  (%d nodes, %d arcs, %d terms; best of %d)\n",
				ds.name, sh, best, nodes, arcs, terms, reps)
		}
	}

	fmt.Println("\n== match cache on a Zipf(1.3) term workload ==")
	check(ctx.Err())
	db, err := datagen.BuildDBLP(dblpCfg)
	check(err)
	g, err := graph.Build(db, nil)
	check(err)
	ix, err := index.Build(db, g)
	check(err)
	// The same stream the BenchmarkCachedLookup regression suite uses.
	const draws = 200000
	stream := datagen.ZipfTerms(draws, 42)
	uncachedStart := time.Now()
	for _, w := range stream {
		_ = ix.Lookup(w)
	}
	uncached := time.Since(uncachedStart)
	cache := index.NewMatchCache(4 << 20)
	cachedStart := time.Now()
	for _, w := range stream {
		_ = cache.Lookup(ix, 0, w)
	}
	cached := time.Since(cachedStart)
	st := cache.Stats()
	fmt.Printf("exact lookups   %d draws: uncached %v, cached %v, hit rate %.3f\n",
		draws, uncached, cached, st.HitRate())

	pfxCache := index.NewMatchCache(4 << 20)
	const pfxDraws = 2000
	pfxUncachedStart := time.Now()
	for i := 0; i < pfxDraws; i++ {
		_ = ix.LookupPrefix(stream[i][:4])
	}
	pfxUncached := time.Since(pfxUncachedStart)
	pfxCachedStart := time.Now()
	for i := 0; i < pfxDraws; i++ {
		_ = pfxCache.LookupPrefix(ix, 0, stream[i][:4])
	}
	pfxCached := time.Since(pfxCachedStart)
	fmt.Printf("prefix lookups  %d draws: uncached %v (%v/op), cached %v (%v/op), hit rate %.3f\n",
		pfxDraws, pfxUncached, pfxUncached/pfxDraws, pfxCached, pfxCached/pfxDraws,
		pfxCache.Stats().HitRate())
	printPeakRSS()
}

func runFull(db *sqldb.Database, g *graph.Graph, s *core.Searcher) {
	fmt.Println("== E7: extended sweep over all eight §2.3 combinations ==")
	queries, err := eval.DBLPSuite(db, g)
	check(err)
	points, err := eval.SweepFull(s, queries, eval.DefaultDBLPOptions())
	check(err)
	fmt.Println("lambda  edgeLog  nodeLog  combine         error  note")
	for _, p := range points {
		comb := "additive"
		if p.Mult {
			comb = "multiplicative"
		}
		note := ""
		if p.Discarded() {
			note = "(discarded in paper)"
		}
		fmt.Printf("%-7.1f %-8v %-8v %-15s %5.1f  %s\n", p.Lambda, p.EdgeLog, p.NodeLog, comb, p.Scaled, note)
	}
	fmt.Println()
}
