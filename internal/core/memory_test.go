package core_test

// Memory ceilings of the search path at paper scale (100 K nodes). They pin
// the property the sparse-then-dense iterator state exists for: a query's
// scratch memory follows the nodes its iterators touched, not origins ×
// |V|. With a dense 24 B × |V| block per origin the first test's query held
// 4 GB and the second's allocated 950 MB.

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

var paperScale struct {
	once sync.Once
	db   *sqldb.Database
	g    *graph.Graph
	ix   *index.Index
	err  error
}

// paperScaleEngine builds the paper-scale DBLP graph and index once for
// the memory tests (about half a second).
func paperScaleEngine(t *testing.T) (*sqldb.Database, *graph.Graph, *index.Index) {
	t.Helper()
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	p := &paperScale
	p.once.Do(func() {
		if p.db, p.err = datagen.BuildDBLP(datagen.PaperScaleDBLP()); p.err != nil {
			return
		}
		if p.g, p.err = graph.Build(p.db, nil); p.err != nil {
			return
		}
		p.ix, p.err = index.Build(p.db, p.g)
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.db, p.g, p.ix
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMetadataQueryScratchCeiling: a metadata term expands to
// MetadataNodeLimit (1 000) origins; everything the query leaves resident
// in its session arena — every iterator's table, heap and dense block —
// stays under 64 MB.
func TestMetadataQueryScratchCeiling(t *testing.T) {
	_, g, ix := paperScaleEngine(t)
	sess := core.NewSearcher(g, ix).NewSession()
	defer sess.Close()
	before := heapAlloc()
	answers, stats, err := sess.Query(context.Background(), core.Request{Terms: []string{"author", "mining"}}, dblpGoldenOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 || !stats.MetadataTruncated || stats.MatchedNodes[0] != 1000 {
		t.Fatalf("want answers from a 1000-origin metadata match, got %d answers, matched %v", len(answers), stats.MatchedNodes)
	}
	const ceiling = 64 << 20
	grew := int64(heapAlloc()) - int64(before)
	t.Logf("%d origins, %d pops, %d arcs: live heap grew %.1f MB", stats.MatchedNodes[0]+stats.MatchedNodes[1], stats.Pops, stats.ArcsScanned, float64(grew)/(1<<20))
	if grew > ceiling {
		t.Errorf("live heap grew %d bytes over a %d-origin query, ceiling %d", grew, stats.MatchedNodes[0]+stats.MatchedNodes[1], ceiling)
	}
}

// TestFreshSearcherFirstQueryAllocation: the first name query on a cold
// arena — what a process's first reader pays — allocates under 10 MB in
// all: one arena (20 B × |V| plus headroom) and a few hundred small
// tables. The pool is drained first, so the query cannot draw an arena an
// earlier test warmed.
func TestFreshSearcherFirstQueryAllocation(t *testing.T) {
	db, g, ix := paperScaleEngine(t)
	name := strings.Fields(strings.ToLower(db.Table("Author").Row(5000)[1].String()))
	s := core.NewSearcher(g, ix)
	core.DrainArenaPool()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	answers, stats, err := s.SearchStats(name, dblpGoldenOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	origins := 0
	for _, m := range stats.MatchedNodes {
		origins += m
	}
	if len(answers) == 0 || origins < 100 {
		t.Fatalf("query %v: %d answers from %d origins, want a name query with hundreds", name, len(answers), origins)
	}
	const ceiling = 10 << 20
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%v: %d origins, %d pops: allocated %.1f MB", name, origins, stats.Pops, float64(allocated)/(1<<20))
	if allocated > ceiling {
		t.Errorf("first query on a cold arena allocated %d bytes, ceiling %d", allocated, ceiling)
	}
}
