package core_test

// Golden tests pinning the exact output of the backward expanding search.
// The answer lists (tree signatures, scores, weights) and the execution
// trace (iterator pops, candidate trees generated) for a fixed query mix
// over the deterministic DBLP and TPC-D generators are rendered to text
// and compared against committed goldens, so any refactor of the executor
// can prove itself answer-identical.
//
// Regenerate with:
//
//	go test ./internal/core -run TestGolden -update-golden

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the search golden files")

// goldenQuery is one pinned query: terms plus the request/option knobs that
// change the execution path (qualified, prefix, metadata caps).
type goldenQuery struct {
	name      string
	terms     []string
	qualified bool
	prefix    bool
	metaLimit int // MetadataNodeLimit override when > 0
}

func dblpGoldenQueries() []goldenQuery {
	return []goldenQuery{
		{name: "coauthor-pair", terms: []string{"soumen", "sunita"}},
		{name: "common-coauthor", terms: []string{"seltzer", "sunita"}},
		{name: "author-and-title", terms: []string{"gray", "concepts"}},
		{name: "title-words", terms: []string{"mining", "surprising", "patterns"}},
		{name: "single-author", terms: []string{"mohan"}},
		{name: "single-title-word", terms: []string{"transaction"}},
		{name: "three-coauthors", terms: []string{"soumen", "sunita", "byron"}},
		{name: "metadata-mixed", terms: []string{"author", "sunita"}, metaLimit: 200},
		{name: "prefix", terms: []string{"surpris"}, prefix: true},
		{name: "qualified", terms: []string{"author:soumen", "author:sunita"}, qualified: true},
	}
}

func tpcdGoldenQueries() []goldenQuery {
	return []goldenQuery{
		{name: "two-term", terms: []string{"steel", "widget"}},
		{name: "three-term", terms: []string{"premium", "steel", "widget"}},
		{name: "economy", terms: []string{"economy", "widget"}},
		{name: "single-term", terms: []string{"supplier"}},
		{name: "metadata-mixed", terms: []string{"lineitem", "steel"}, metaLimit: 100},
		{name: "prefix", terms: []string{"wid"}, prefix: true},
	}
}

// runGoldenSuite renders the full result of the query mix into the
// comparison-stable text form.
func runGoldenSuite(t *testing.T, db *sqldb.Database, s *core.Searcher, queries []goldenQuery, baseOpts *core.Options) string {
	t.Helper()
	var b strings.Builder
	for _, q := range queries {
		o := *baseOpts
		if q.metaLimit > 0 {
			o.MetadataNodeLimit = q.metaLimit
		}
		req := core.Request{Terms: q.terms, Qualified: q.qualified, Prefix: q.prefix, DB: db}
		answers, stats, err := s.Query(context.Background(), req, &o, nil)
		if err != nil {
			t.Fatalf("query %s: %v", q.name, err)
		}
		fmt.Fprintf(&b, "query %s terms=%v qualified=%v prefix=%v\n", q.name, q.terms, q.qualified, q.prefix)
		fmt.Fprintf(&b, "  stats pops=%d generated=%d duplicates=%d singleChildRoots=%d matched=%v\n",
			stats.Pops, stats.Generated, stats.Duplicates, stats.SingleChildRoots, stats.MatchedNodes)
		for _, a := range answers {
			fmt.Fprintf(&b, "  %2d. sig=%s score=%.9f escore=%.9f nscore=%.9f weight=%.9f terms=%v\n",
				a.Rank, a.Signature(), a.Score, a.EScore, a.NScore, a.Weight, a.TermNodes)
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("output differs from golden %s\n--- got ---\n%s--- want ---\n%s", path, got, string(want))
	}
}

func buildGoldenFixture(t *testing.T, db *sqldb.Database) (*graph.Graph, *index.Index, *core.Searcher) {
	t.Helper()
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return g, ix, core.NewSearcher(g, ix)
}

func dblpGoldenOptions() *core.Options {
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	return o
}

// TestGoldenBackwardDBLP pins the default (backward expanding) strategy on
// the DBLP generator.
func TestGoldenBackwardDBLP(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	_, _, s := buildGoldenFixture(t, db)
	core.DrainArenaPool()
	got := runGoldenSuite(t, db, s, dblpGoldenQueries(), dblpGoldenOptions())
	checkGolden(t, "golden_backward_dblp.txt", got)
}

// TestGoldenBackwardTPCD pins the default strategy on the TPC-D generator.
func TestGoldenBackwardTPCD(t *testing.T) {
	db, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	_, _, s := buildGoldenFixture(t, db)
	core.DrainArenaPool()
	got := runGoldenSuite(t, db, s, tpcdGoldenQueries(), core.DefaultOptions())
	checkGolden(t, "golden_backward_tpcd.txt", got)
}

// TestGoldenRecycledDBLP runs the DBLP suite twice on one Searcher with a
// match cache attached, checking both passes against the same golden. The
// first pass starts on a cold arena; the second resolves every term from
// the cache and runs on pooled arenas whose iterators carry the first
// pass's stale sparse slots and whose dense blocks come off the free list.
// The golden tests above start cold too: the arena pool is process-wide,
// so each drains it rather than inherit an arena another test warmed.
func TestGoldenRecycledDBLP(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	_, _, s := buildGoldenFixture(t, db)
	s.WithMatchCache(index.NewMatchCache(4 << 20))
	core.DrainArenaPool()
	for pass := 0; pass < 2; pass++ {
		checkGolden(t, "golden_backward_dblp.txt", runGoldenSuite(t, db, s, dblpGoldenQueries(), dblpGoldenOptions()))
	}
}

// TestGoldenRecycledTPCD is TestGoldenRecycledDBLP on the TPC-D generator.
func TestGoldenRecycledTPCD(t *testing.T) {
	db, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	_, _, s := buildGoldenFixture(t, db)
	s.WithMatchCache(index.NewMatchCache(4 << 20))
	core.DrainArenaPool()
	for pass := 0; pass < 2; pass++ {
		checkGolden(t, "golden_backward_tpcd.txt", runGoldenSuite(t, db, s, tpcdGoldenQueries(), core.DefaultOptions()))
	}
}
