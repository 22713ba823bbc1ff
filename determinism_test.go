package banks

// The parallel engine build must be invisible: building the graph and
// keyword index with any shard count has to produce byte-identical
// stores (store.Write) and identical top-k answers. These golden
// tests pin that contract on both generators, so the parallel build can be
// the default without a correctness/perf trade-off.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
)

// buildEngineBytes builds graph+index with the given build options and
// shard count and returns the store they write.
func buildEngineBytes(t *testing.T, db *sqldb.Database, opts graph.BuildOptions, shards int) []byte {
	t.Helper()
	opts.Shards = shards
	g, err := graph.Build(db, &opts)
	if err != nil {
		t.Fatalf("graph.Build(shards=%d): %v", shards, err)
	}
	ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: shards})
	if err != nil {
		t.Fatalf("index.Build(shards=%d): %v", shards, err)
	}
	var b bytes.Buffer
	if err := store.Write(&b, store.Engine{Graph: g, Index: ix}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestParallelBuildBitIdentical(t *testing.T) {
	datasets := []struct {
		name  string
		build func() (*sqldb.Database, error)
	}{
		{"dblp", func() (*sqldb.Database, error) { return datagen.BuildDBLP(datagen.SmallDBLP()) }},
		{"tpcd", func() (*sqldb.Database, error) { return datagen.BuildTPCD(datagen.SmallTPCD()) }},
		// A mid-size DBLP whose Writes/Cites tables span several
		// buildShardSize chunks, so the multi-shard merge (not just the
		// one-shard-per-table degenerate case) is what's being pinned.
		{"dblp-sharded", func() (*sqldb.Database, error) {
			return datagen.BuildDBLP(datagen.DBLPConfig{
				Papers: 2500, Authors: 1200, AvgAuthorsPerPaper: 2.5, Cites: 6000, Seed: 5,
			})
		}},
		{"tpcd-sharded", func() (*sqldb.Database, error) {
			return datagen.BuildTPCD(datagen.TPCDConfig{
				Parts: 400, Suppliers: 100, Customers: 300, Orders: 1500, LinesPer: 3, Seed: 11,
			})
		}},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			db, err := ds.build()
			if err != nil {
				t.Fatal(err)
			}
			serial := buildEngineBytes(t, db, *graph.DefaultBuildOptions(), 1)
			for _, shards := range []int{2, 4, 8} {
				if got := buildEngineBytes(t, db, *graph.DefaultBuildOptions(), shards); !bytes.Equal(serial, got) {
					t.Errorf("store bytes differ: serial %d bytes vs %d shards %d bytes", len(serial), shards, len(got))
				}
			}
		})
	}
}

// TestParallelBuildPrestigeModesBitIdentical covers the non-default build
// options too: PageRank prestige iterates over the merged link list, whose
// order must survive sharding, and unscaled back edges skip the indegree
// aggregation.
func TestParallelBuildPrestigeModesBitIdentical(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []graph.BuildOptions{
		{ScaleBackEdges: false},
		{ScaleBackEdges: true, PrestigeDamping: 0.85, PrestigeIters: 15},
	} {
		want := buildEngineBytes(t, db, opts, 1)
		for _, shards := range []int{3, 8} {
			if got := buildEngineBytes(t, db, opts, shards); !bytes.Equal(want, got) {
				t.Errorf("opts %+v: %d-shard engine differs from serial", opts, shards)
			}
		}
	}
}

// answerKey renders one answer in a comparison-stable form: signature
// (root + sorted edges) plus score.
func answerKey(a *core.Answer) string {
	return fmt.Sprintf("%s score=%.9f", a.Signature(), a.Score)
}

// TestParallelBuildSameTopK runs the §5.3 evaluation query suite against a
// serial and an 8-shard engine and requires identical ranked answers.
func TestParallelBuildSameTopK(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int) (*core.Searcher, []eval.Query) {
		bo := graph.DefaultBuildOptions()
		bo.Shards = shards
		g, err := graph.Build(db, bo)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := index.BuildWithOptions(db, g, &index.BuildOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		queries, err := eval.DBLPSuite(db, g)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewSearcher(g, ix), queries
	}
	serial, queries := build(1)
	sharded, _ := build(8)
	opts := eval.DefaultDBLPOptions()
	for _, q := range queries {
		want, err := searchCore(serial, q.Terms, opts)
		if err != nil {
			t.Fatalf("query %s (serial): %v", q.Name, err)
		}
		got, err := searchCore(sharded, q.Terms, opts)
		if err != nil {
			t.Fatalf("query %s (sharded): %v", q.Name, err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %s: %d answers serial vs %d sharded", q.Name, len(want), len(got))
		}
		for i := range want {
			if answerKey(want[i]) != answerKey(got[i]) {
				t.Errorf("query %s rank %d differs:\n  serial:  %s\n  sharded: %s",
					q.Name, i+1, answerKey(want[i]), answerKey(got[i]))
			}
		}
	}
}

// searchCore runs a plain-terms request straight through core.Searcher.Query.
func searchCore(s *core.Searcher, terms []string, opts *core.Options) ([]*core.Answer, error) {
	answers, _, err := s.Query(context.Background(), core.Request{Terms: terms}, opts, nil)
	return answers, err
}
