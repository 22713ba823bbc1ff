package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
	"github.com/banksdb/banks/internal/wal"
)

// Fixed counts of the layer measurements, so their counts repeat exactly.
const (
	microBatches    = 200   // Apply / WAL append / Delta.Apply batches timed
	overlayBatches  = 500   // Author+Writes inserts behind the overlay: 1 000 row changes
	arcScanNodes    = 10000 // nodes whose in-arcs the arc scans sweep
	postingTerms    = 1000  // dictionary entries the posting decode samples
	freshSearchers  = 5     // brand-new Searchers timed on their first query
	gateAcquires    = 100000
	routeRepeats    = 100
	storeWriteReps  = 3
	storeOpenReps   = 5
	microbenchSeedX = 7919 // keeps microbenchmark sampling apart from the query list's stream
)

// coreOptions mirrors what the front door resolves serveOptions().Search
// to: the harness calls the engine below the public surface with the
// same parameters the front door would.
func coreOptions() *core.Options {
	o := core.DefaultOptions()
	o.ExcludedRootTables = searchOptions().ExcludedRootTables
	return o
}

// replica is a harness-built engine over the workload's database: the
// same graph.Build + index.BuildWithOptions + Searcher the System builds
// inside, so calls below the public surface can be timed from outside.
type replica struct {
	g        *graph.Graph
	ix       *index.Index
	cache    *index.MatchCache
	searcher *core.Searcher
	buildG   time.Duration
	buildIx  time.Duration
}

func buildReplica(db *sqldb.Database) (*replica, error) {
	r := &replica{}
	start := time.Now()
	g, err := graph.Build(db, graph.DefaultBuildOptions())
	if err != nil {
		return nil, fmt.Errorf("graph.Build: %w", err)
	}
	r.buildG = time.Since(start)
	start = time.Now()
	ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("index.Build: %w", err)
	}
	r.buildIx = time.Since(start)
	r.g, r.ix = g, ix
	r.cache = index.NewMatchCache(banks.DefaultMatchCacheBytes)
	r.searcher = core.NewSearcher(g, ix).WithMatchCache(r.cache)
	return r, nil
}

func termsOf(q query) []string { return strings.Fields(q.Text) }

func sumDur(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

// diffs returns a[i]-b[i].
func diffs(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers collects the per-layer metrics of one traced run.
type layers struct {
	cfg    runConfig
	tr     *tracer
	put    func(name, unit string, v float64)
	ctx    context.Context
	dir    string
	corpus *corpus
}

// ladder replays qs at successively deeper exported entry points:
// the workload's front door, System.Query, Searcher.Query on the
// replica, and the replica's per-term resolve; then the same requests
// through a replica Coordinator, its legs and its merge. Each pass runs
// over a warm engine, so a layer's self time is its span minus the
// replayed child span.
func (l *layers) ladder(s *sut, rep *replica, parts []string, qs []query) error {
	n := len(qs)
	reqs := make([]int, n)
	for i := range reqs {
		reqs[i] = l.tr.request()
	}

	// One untimed pass over the replica fills its match cache and sizes
	// its arena. The timed passes follow in the order front door,
	// Searcher.Query, System.Query, so that the two whose difference is the
	// front door's self time run next to each other: whatever the machine's
	// speed does between two passes ends up in their difference.
	copts := coreOptions()
	coreQuery := func(sr *core.Searcher, q query) ([]*core.Answer, *core.Stats, error) {
		return sr.Query(l.ctx, core.Request{Terms: termsOf(q)}, copts, nil)
	}
	for _, q := range qs {
		if _, _, err := coreQuery(rep.searcher, q); err != nil {
			return err
		}
	}
	// Front door. The window already left it warm.
	fd := make([]time.Duration, n)
	fdSpan := make([]int, n)
	t := newTarget(s.handler, qs)
	for i := range qs {
		sm := t.do(i)
		if sm.code != http.StatusOK {
			return fmt.Errorf("ladder: front door answered %d for %q", sm.code, qs[i].Text)
		}
		fd[i] = sm.dur
		fdSpan[i] = l.tr.add(reqs[i], 0, "web.ServeHTTP", sm.start, sm.dur)
	}

	// Searcher.Query on the replica.
	coreT := make([]time.Duration, n)
	coreSpan := make([]int, n)
	var origins, pops, arcs, generated, duplicates, answers int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, q := range qs {
		parent := fdSpan[i]
		if s.w.Cluster {
			parent = 0 // the cluster front door does not call the single engine
		}
		var st *core.Stats
		var as []*core.Answer
		var err error
		coreSpan[i], coreT[i] = l.tr.timed(reqs[i], parent, "core.Searcher.Query", func() {
			as, st, err = coreQuery(rep.searcher, q)
		})
		if err != nil {
			return err
		}
		for _, m := range st.MatchedNodes {
			origins += m
		}
		pops += st.Pops
		arcs += st.ArcsScanned
		generated += st.Generated
		duplicates += st.Duplicates
		answers += len(as)
	}
	runtime.ReadMemStats(&m1)

	// System.Query: the public call, answer conversion included.
	sysT := make([]time.Duration, n)
	for i, q := range qs {
		var err error
		_, sysT[i] = l.tr.timed(reqs[i], 0, "banks.System.Query", func() {
			_, err = ask(l.ctx, s.sys, q.Text, 10)
		})
		if err != nil {
			return err
		}
	}

	// Resolve: what Searcher.Query spends in the match cache (warm) and
	// what the index costs behind it (cold), per term.
	resolveQ := make([]time.Duration, n) // per query, summed over its terms
	var warm, cold []time.Duration
	for i, q := range qs {
		for _, term := range termsOf(q) {
			_, d := l.tr.timed(reqs[i], coreSpan[i], "index.MatchCache.Lookup", func() {
				rep.cache.Lookup(rep.ix, 0, term)
			})
			warm = append(warm, d)
			resolveQ[i] += d
			start := time.Now()
			rep.ix.Lookup(term)
			cold = append(cold, time.Since(start))
		}
	}

	fq := float64(n)
	searchSelf := diffs(coreT, resolveQ)
	l.put("banks.convert_us", "us", us(median(diffs(sysT, coreT))))
	l.put("core.query_us", "us", us(median(coreT)))
	l.put("index.resolve_us", "us", us(median(warm)))
	l.put("index.resolve_cold_us", "us", us(median(cold)))
	l.put("core.search_self_us", "us", us(median(searchSelf)))
	l.put("core.origins_per_query", "count", float64(origins)/fq)
	l.put("core.pops_per_query", "count", float64(pops)/fq)
	l.put("core.arcs_per_query", "count", float64(arcs)/fq)
	l.put("core.generated_per_query", "count", float64(generated)/fq)
	l.put("core.duplicates_per_query", "count", float64(duplicates)/fq)
	l.put("core.answers_per_query", "count", float64(answers)/fq)
	l.put("core.useful_tree_ratio", "ratio", ratio(float64(answers), float64(generated)))
	l.put("core.us_per_origin", "us", ratio(us(sumDur(searchSelf)), float64(origins)))
	l.put("core.ns_per_pop", "ns", ratio(float64(sumDur(searchSelf)), float64(pops)))
	l.put("core.alloc_kb_per_query", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/fq)

	// The cluster's ladder, on a replica Coordinator over the partition stores.
	locals := make([]*cluster.Local, len(parts))
	cparts := make([]cluster.Partition, len(parts))
	for i, p := range parts {
		loc, err := cluster.OpenLocal(fmt.Sprintf("p%d", i), p, 0)
		if err != nil {
			return err
		}
		defer loc.Close()
		locals[i], cparts[i] = loc, loc
	}
	coord, err := cluster.NewCoordinator(l.ctx, cparts)
	if err != nil {
		return err
	}
	sketches := make([]*cluster.Sketch, len(parts))
	for i, meta := range coord.Partitions() {
		if sketches[i], err = cluster.DecodeSketch(meta.Sketch); err != nil {
			return err
		}
	}
	broker := cluster.NewBroker(sketches)
	wreqs := make([]cluster.Request, n)
	for i, q := range qs {
		terms := termsOf(q)
		for j := range terms {
			terms[j] = strings.ToLower(terms[j])
		}
		wreqs[i] = cluster.RequestFromOptions(terms, false, false, copts)
	}
	for _, req := range wreqs { // untimed: first-touch CRC and posting decode of every leg
		if _, err := coord.Query(l.ctx, req); err != nil {
			return err
		}
	}
	coordT := make([]time.Duration, n)
	slowest := make([]time.Duration, n)
	var legT, mergeT, wireT []time.Duration
	var slowRatio []float64
	var prunedLegs, clusterAnswers int
	for i, req := range wreqs {
		parent := 0
		if s.w.Cluster {
			parent = fdSpan[i]
		}
		var res *cluster.Result
		var cspan int
		cspan, coordT[i] = l.tr.timed(reqs[i], parent, "cluster.Coordinator.Query", func() {
			res, err = coord.Query(l.ctx, req)
		})
		if err != nil {
			return err
		}
		clusterAnswers += len(res.Answers)
		routed := broker.Route(req.Terms, true, false)
		prunedLegs += len(parts) - len(routed)
		var lists [][]cluster.Answer
		var sum time.Duration
		for _, p := range routed {
			var leg *cluster.Result
			_, d := l.tr.timed(reqs[i], cspan, "cluster.Local.Query", func() {
				leg, err = locals[p].Query(l.ctx, req)
			})
			if err != nil {
				return err
			}
			lists = append(lists, leg.Answers)
			legT = append(legT, d)
			sum += d
			if d > slowest[i] {
				slowest[i] = d
			}
		}
		if len(routed) > 0 {
			slowRatio = append(slowRatio, ratio(float64(slowest[i]), float64(sum)/float64(len(routed))))
			_, d := l.tr.timed(reqs[i], cspan, "cluster.MergeAnswers", func() {
				cluster.MergeAnswers(coord.TableIDs(), lists, req.TopK)
			})
			mergeT = append(mergeT, d)
			// The first leg again, through the HTTP/JSON partition adapter
			// served in process and then directly: what the wire adds to a
			// remote partition's leg.
			first := locals[routed[0]]
			remote := cluster.NewRemote("wire", "http://partition", &http.Client{Transport: inProcess{cluster.Handler(first)}})
			start := time.Now()
			if _, err := remote.Query(l.ctx, req); err != nil {
				return err
			}
			over := time.Since(start)
			start = time.Now()
			if _, err := first.Query(l.ctx, req); err != nil {
				return err
			}
			wireT = append(wireT, over-time.Since(start))
		}
	}
	start := time.Now()
	for r := 0; r < routeRepeats; r++ {
		for _, req := range wreqs {
			broker.Route(req.Terms, true, false)
		}
	}
	l.put("cluster.route_ns", "ns", float64(time.Since(start))/float64(routeRepeats*n))
	l.put("cluster.pruned_leg_ratio", "ratio", float64(prunedLegs)/float64(len(parts)*n))
	l.put("cluster.leg_query_us", "us", us(median(legT)))
	sort.Float64s(slowRatio)
	var slowMed float64
	if len(slowRatio) > 0 {
		slowMed = slowRatio[len(slowRatio)/2]
	}
	l.put("cluster.slowest_leg_ratio", "ratio", slowMed)
	coordSelf := diffs(coordT, slowest)
	l.put("cluster.coord_self_us", "us", us(median(coordSelf)))
	l.put("cluster.merge_us", "us", us(median(mergeT)))
	l.put("cluster.wire_roundtrip_us", "us", us(median(wireT)))
	l.put("cluster.answers_per_query", "count", float64(clusterAnswers)/fq)

	// The front door's own share, and whether the ladder adds up: the
	// self times along the chain the front door really calls, over its
	// median.
	engine, chain := coreT, median(searchSelf)+median(resolveQ)
	if s.w.Cluster {
		engine, chain = coordT, median(coordSelf)+median(slowest)
	}
	fdSelf := median(diffs(fd, engine))
	l.put("web.frontdoor_self_us", "us", us(fdSelf))
	l.put("trace.ladder_sum_ratio", "ratio", ratio(float64(fdSelf+chain), float64(median(fd))))
	return nil
}

// inProcess is an http.RoundTripper that serves the request from a
// handler in this process: the wire format without a socket.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// micro measures the layers one exported call at a time, on fixtures of
// fixed size: the read structures on the replica, the write path on a
// second copy of the dataset (it inserts rows), the store on a file
// written from the replica.
func (l *layers) micro(rep *replica) error {
	rng := rand.New(rand.NewSource(l.cfg.Seed + microbenchSeedX))
	nameQuery := query{Class: className, Text: l.corpus.drawAdmitted(rng, func(term string) (int, []string) {
		m := rep.ix.Lookup(term)
		return len(m.Nodes), nil
	}, className)}
	copts := coreOptions()
	nameReq := core.Request{Terms: termsOf(nameQuery)}

	// serve: an uncontended admission.
	gate := serve.NewGate(serve.GateConfig{Workers: maxInFlight, Queue: maxQueue})
	start := time.Now()
	for i := 0; i < gateAcquires; i++ {
		release, err := gate.Acquire(l.ctx)
		if err != nil {
			return err
		}
		release()
	}
	l.put("serve.gate_acquire_ns", "ns", float64(time.Since(start))/gateAcquires)

	// core: what every publish costs the next reader — a brand-new
	// Searcher (cold arena) answering its first name query.
	var fresh []time.Duration
	for i := 0; i < freshSearchers; i++ {
		sr := core.NewSearcher(rep.g, rep.ix).WithMatchCache(rep.cache)
		start := time.Now()
		if _, _, err := sr.Query(l.ctx, nameReq, copts, nil); err != nil {
			return err
		}
		fresh = append(fresh, time.Since(start))
	}
	l.put("core.fresh_searcher_query_ms", "ms", ms(median(fresh)))

	// graph: reverse-arc sweep over sampled nodes, base CSR.
	nodes := make([]graph.NodeID, arcScanNodes)
	for i := range nodes {
		nodes[i] = graph.NodeID(rng.Intn(rep.g.NumNodes()))
	}
	l.put("graph.arc_scan_ns", "ns", arcScan(rep.g, nodes))
	l.put("graph.build_ms", "ms", ms(rep.buildG))
	l.put("index.build_ms", "ms", ms(rep.buildIx))

	if err := l.microWrite(nodes, nameReq); err != nil {
		return err
	}
	return l.microStore(rep, rng, nameReq)
}

var sink float64

// arcScan sweeps In(n) of every sampled node and returns ns per arc.
func arcScan(g graph.View, nodes []graph.NodeID) float64 {
	arcs := 0
	start := time.Now()
	for _, n := range nodes {
		for _, e := range g.In(n) {
			sink += e.W
			arcs++
		}
	}
	return ratio(float64(time.Since(start)), float64(arcs))
}

// microWrite times the write path: System.Apply with no readers, and
// below it wal.Log.Append, graph.Delta.Apply and Snapshot on a replica
// delta; then reads through the resulting overlay.
func (l *layers) microWrite(nodes []graph.NodeID, nameReq core.Request) error {
	inner, sys, err := durableCopy(l.cfg.Scale, filepath.Join(l.dir, "micro"))
	if err != nil {
		return err
	}
	defer sys.Close()
	applyT, err := applyQuiet(l.ctx, sys, genMutations(l.corpus, microBatches, l.cfg.Seed))
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sys.Compact(); err != nil {
		return err
	}
	l.put("banks.compact_ms", "ms", ms(time.Since(start)))
	if err := sys.Close(); err != nil {
		return err
	}

	// The same insert batch, journaled on a scratch log.
	log, err := wal.Open(filepath.Join(l.dir, "scratch.wal"), 0, func(wal.Batch) error { return nil })
	if err != nil {
		return err
	}
	defer log.Close()
	var walT []time.Duration
	for i := 0; i < microBatches; i++ {
		id := benchAuthorID(i)
		batch := []wal.Mutation{
			{Op: wal.OpInsert, Table: "Author", RID: int64(i), Cols: []string{"AuthorId", "AuthorName"},
				Vals: []sqldb.Value{sqldb.Text(id), sqldb.Text("Benchw Scratch")}},
			{Op: wal.OpInsert, Table: "Writes", RID: int64(i), Cols: []string{"AuthorId", "PaperId"},
				Vals: []sqldb.Value{sqldb.Text(id), sqldb.Text(l.corpus.papers[0])}},
		}
		start := time.Now()
		if _, err := log.Append(batch); err != nil {
			return err
		}
		walT = append(walT, time.Since(start))
	}
	l.put("wal.append_fsync_us", "us", us(median(walT)))
	l.put("wal.bytes_per_batch", "B", float64(log.Size())/microBatches)

	// A replica delta over the compacted database: overlayBatches
	// Author+Writes inserts, each folded in as System.Apply would.
	g, err := graph.Build(inner, graph.DefaultBuildOptions())
	if err != nil {
		return err
	}
	ix, err := index.BuildWithOptions(inner, g, &index.BuildOptions{})
	if err != nil {
		return err
	}
	gd := graph.NewDelta(g, inner, true)
	id := index.NewDelta(ix)
	type row struct {
		table string
		rid   sqldb.RID
		text  string
	}
	var rows []row
	var deltaT []time.Duration
	for i := 0; i < overlayBatches; i++ {
		aid := fmt.Sprintf("OverlayA%06d", i)
		name := "Overlayw " + l.corpus.authors[i%len(l.corpus.authors)].Last
		pid := l.corpus.papers[i%len(l.corpus.papers)]
		ra, err := inner.InsertMap("Author", map[string]sqldb.Value{"AuthorId": sqldb.Text(aid), "AuthorName": sqldb.Text(name)})
		if err != nil {
			return err
		}
		rw, err := inner.InsertMap("Writes", map[string]sqldb.Value{"AuthorId": sqldb.Text(aid), "PaperId": sqldb.Text(pid)})
		if err != nil {
			return err
		}
		start := time.Now()
		err = gd.Apply([]graph.RowChange{{Op: graph.RowInsert, Table: "Author", RID: ra}, {Op: graph.RowInsert, Table: "Writes", RID: rw}})
		if err != nil {
			return err
		}
		deltaT = append(deltaT, time.Since(start))
		rows = append(rows, row{"Author", ra, aid + " " + name}, row{"Writes", rw, aid + " " + pid})
	}
	start = time.Now()
	gView := gd.Snapshot()
	l.put("graph.snapshot_us", "us", us(time.Since(start)))
	for _, r := range rows {
		n := gView.NodeOf(r.table, r.rid)
		for _, tok := range index.Tokenize(r.text) {
			id.Add(tok, n)
		}
	}
	ixView := id.Snapshot(gView.NumNodes())
	l.put("graph.delta_apply_us", "us", us(median(deltaT)))
	l.put("banks.apply_us", "us", us(median(applyT)))
	l.put("banks.publish_self_us", "us", us(median(applyT)-median(walT)-median(deltaT)))
	l.put("graph.overlay_arc_scan_ns", "ns", arcScan(gView, nodes))

	// Reads through the overlay with a warm arena: the patch-map
	// indirection alone, apart from the cold arena a publish hands out.
	sr := core.NewSearcher(gView, ixView)
	copts := coreOptions()
	var overlayT []time.Duration
	for i := 0; i <= freshSearchers; i++ {
		start := time.Now()
		if _, _, err := sr.Query(l.ctx, nameReq, copts, nil); err != nil {
			return err
		}
		if i > 0 { // the first query sizes the arena
			overlayT = append(overlayT, time.Since(start))
		}
	}
	l.put("core.overlay_query_us", "us", us(median(overlayT)))
	return nil
}

// microStore times the store's write, open, first touch and posting
// decode on a file written from the replica.
func (l *layers) microStore(rep *replica, rng *rand.Rand, nameReq core.Request) error {
	path := filepath.Join(l.dir, "replica.bstore")
	var writeT []time.Duration
	for i := 0; i < storeWriteReps; i++ {
		start := time.Now()
		if err := store.WriteFile(path, store.Engine{Graph: rep.g, Index: rep.ix}); err != nil {
			return err
		}
		writeT = append(writeT, time.Since(start))
	}
	l.put("store.write_ms", "ms", ms(median(writeT)))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.put("store.file_mb", "MB", float64(fi.Size())/(1<<20))

	var openT []time.Duration
	var st *store.Store
	for i := 0; i < storeOpenReps; i++ {
		if st != nil {
			st.Close()
		}
		start := time.Now()
		if st, err = store.Open(path, store.Options{}); err != nil {
			return err
		}
		openT = append(openT, time.Since(start))
	}
	defer st.Close()
	l.put("store.open_us", "us", us(median(openT)))

	start := time.Now()
	if _, _, err := core.NewSearcher(st.Graph(), st.Index()).Query(l.ctx, nameReq, coreOptions(), nil); err != nil {
		return err
	}
	l.put("store.first_touch_ms", "ms", ms(time.Since(start)))

	dict, err := st.Dict()
	if err != nil {
		return err
	}
	var decodeT []time.Duration
	for i := 0; i < postingTerms; i++ {
		t := rng.Intn(len(dict.Toks))
		start := time.Now()
		if _, err := st.Postings(t, dict.Toks[t]); err != nil {
			return err
		}
		decodeT = append(decodeT, time.Since(start))
	}
	l.put("store.posting_decode_ns", "ns", float64(median(decodeT)))
	l.put("store.faulted_mb", "MB", float64(st.Stats().FaultedBytes)/(1<<20))
	return st.Err()
}
