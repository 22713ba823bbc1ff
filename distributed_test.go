package banks

// Distributed-serving tests at the System level: the 1-partition
// distributed query must be byte-identical to the single-engine backward
// search on both evaluation suites; multi-partition clusters must serve
// only exactly-scored single-engine answers (the partition-local
// completeness bound) and report their routing decision; and the
// scatter-gather front door must survive a -race concurrent burst.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// newClusterFixture builds a system over inner and a parts-partition
// cluster over the same rows. Both close at test end.
func newClusterFixture(t *testing.T, inner *sqldb.Database, parts int) (*System, *Cluster) {
	t.Helper()
	sys, err := NewSystem(wrapDatabase(inner), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	cl, err := OpenCluster(sys.Database(), splitStore(t, sys, parts), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return sys, cl
}

// splitStore saves sys as a store and splits it into parts partition
// stores, returning their paths.
func splitStore(t *testing.T, sys *System, parts int) []string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "store.banks")
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	paths := ClusterPartitionPaths(base, parts)
	if err := cluster.SplitStore(base, paths); err != nil {
		t.Fatal(err)
	}
	return paths
}

func clusterQuery(t *testing.T, cl *Cluster, terms []string, opts *SearchOptions) *Results {
	t.Helper()
	res, err := cl.Query(context.Background(), Query{Text: strings.Join(terms, " "), Options: opts})
	if err != nil {
		t.Fatalf("distributed %v: %v", terms, err)
	}
	return res
}

// TestDistributedGoldenParityDBLP: with one partition, the cluster must
// return byte-identical answers (scores, order, trees) to
// the single-engine backward search across the §5.3 DBLP suite, and the
// partition-local bound must NOT be reported.
func TestDistributedGoldenParityDBLP(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, cl := newClusterFixture(t, inner, 1)
	g, err := graph.Build(inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eval.DBLPSuite(inner, g)
	if err != nil {
		t.Fatal(err)
	}
	opts := &SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}}
	for _, q := range queries {
		want := renderAnswers(searchAnswers(t, sys, strings.Join(q.Terms, " "), opts))
		res := clusterQuery(t, cl, q.Terms, opts)
		if got := renderAnswers(res.Answers); got != want {
			t.Errorf("query %s: distributed N=1 differs from backward\nbackward:\n%s\ndistributed:\n%s",
				q.Name, want, got)
		}
		if res.Stats.PartitionLocalBound {
			t.Errorf("query %s: 1-partition cluster reported the partition-local bound", q.Name)
		}
		if res.Stats.PartitionsTotal != 1 || res.Stats.PartitionsRouted != 1 {
			t.Errorf("query %s: routing %d/%d, want 1/1", q.Name,
				res.Stats.PartitionsRouted, res.Stats.PartitionsTotal)
		}
	}
}

// TestDistributedGoldenParityTPCD is the same golden contract on the
// TPC-D catalog, metadata terms included.
func TestDistributedGoldenParityTPCD(t *testing.T) {
	inner, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	sys, cl := newClusterFixture(t, inner, 1)
	for _, q := range eval.TPCDSuite() {
		want := renderAnswers(searchAnswers(t, sys, strings.Join(q.Terms, " "), nil))
		got := renderAnswers(clusterQuery(t, cl, q.Terms, nil).Answers)
		if got != want {
			t.Errorf("query %s: distributed N=1 differs from backward\nbackward:\n%s\ndistributed:\n%s",
				q.Name, want, got)
		}
	}
}

// TestDistributedMultiPartitionBound verifies the documented
// partition-local completeness bound on N>1 partitions, in both
// directions:
//
//   - Soundness: for any root both sides report, the distributed score
//     never exceeds the single engine's — equal when the best tree lies
//     inside one partition, lower when only a weaker cut-local tree
//     survives. (A distributed-only root is legal: its globally best
//     tree collapses under the engine's single-child-root reduction
//     while the cut-local tree branches at the root.)
//   - Completeness: every single-engine answer whose tree lies entirely
//     inside one partition (per the (table, row-range) cut) has a
//     distributed counterpart at the same root scoring at least as well.
//
// The stats must report the bound and a routing decision that accounts
// for every partition.
func TestDistributedMultiPartitionBound(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4} {
		t.Run(fmt.Sprintf("N=%d", parts), func(t *testing.T) {
			sys, cl := newClusterFixture(t, inner, parts)
			// partitionOf mirrors cluster.Assign: node i of a table with
			// count rows goes to partition i*parts/count, and in a freshly
			// built database the node index within a table is its rid.
			partitionOf := func(tp Tuple) int {
				count := inner.Table(tp.Table).Len()
				return int(tp.RID) * parts / count
			}
			// treePartition walks an answer tree: the partition all nodes
			// share, or -1 if the tree crosses the cut.
			var treePartition func(n *TreeNode) int
			treePartition = func(n *TreeNode) int {
				p := partitionOf(n.Tuple)
				for _, c := range n.Children {
					if cp := treePartition(c); cp != p {
						return -1
					}
				}
				return p
			}
			// TopK high enough that neither side truncates: the bound is
			// only meaningful over the full answer sets.
			opts := &SearchOptions{
				ExcludedRootTables: []string{"Writes", "Cites"},
				TopK:               2000,
				HeapSize:           1 << 13,
			}
			for _, terms := range [][]string{
				{"soumen", "sunita"},
				{"mohan"},
				{"transaction"},
				{"gray", "concepts"},
				{"soumen", "sunita", "byron"},
			} {
				single := searchAnswers(t, sys, strings.Join(terms, " "), opts)
				best := make(map[string]float64)
				for _, a := range single {
					key := fmt.Sprintf("%s/%d", a.Root.Table, a.Root.RID)
					if s, ok := best[key]; !ok || a.Score > s {
						best[key] = a.Score
					}
				}
				res := clusterQuery(t, cl, terms, opts)
				distBest := make(map[string]float64)
				for _, a := range res.Answers {
					key := fmt.Sprintf("%s/%d", a.Root.Table, a.Root.RID)
					if s, ok := distBest[key]; !ok || a.Score > s {
						distBest[key] = a.Score
					}
					if s, ok := best[key]; ok && a.Score > s {
						t.Errorf("%v: distributed answer %s scores %g above the single-engine best %g",
							terms, key, a.Score, s)
					}
				}
				for _, a := range single {
					if treePartition(a.Tree) < 0 {
						continue // crosses the cut: the documented loss
					}
					key := fmt.Sprintf("%s/%d", a.Root.Table, a.Root.RID)
					s, ok := distBest[key]
					if !ok {
						t.Errorf("%v: single-engine answer %s (score %g) lies inside one partition but is missing from the distributed results",
							terms, key, a.Score)
					} else if s < a.Score {
						t.Errorf("%v: partition-local answer %s scores %g distributed, below the single-engine %g",
							terms, key, s, a.Score)
					}
				}
				st := res.Stats
				if !st.PartitionLocalBound {
					t.Errorf("%v: multi-partition query did not report the partition-local bound", terms)
				}
				if st.PartitionsTotal != parts || st.PartitionsRouted+st.PartitionsPruned != parts {
					t.Errorf("%v: routing %d routed + %d pruned over %d total, want them to cover %d",
						terms, st.PartitionsRouted, st.PartitionsPruned, st.PartitionsTotal, parts)
				}
			}
		})
	}
}

// TestDistributedScatterBurst hammers the cluster front door from many
// goroutines (run under -race in CI): concurrent scatter-gather must
// stay correct — every reply is a well-formed 200 — and the routing
// counters must account for every query. Eight clients never exceed the
// default gate's eight slots or the heavy gate's four slots plus queue,
// so the door must not shed.
func TestDistributedScatterBurst(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newClusterFixture(t, inner, 4)
	handler := cl.ServeHandler(&ServeOptions{
		Search:           &SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}},
		MaxInFlight:      8,
		MaxQueue:         64,
		HeavyMaxInFlight: 4,
		HeavyMaxQueue:    64,
	})
	queries := []string{"sunita", "soumen sunita", "mining surprising patterns", "transaction", "mohan"}
	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q="+url.QueryEscape(q), nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%q: status %d below the gate's capacity: %s", q, rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := cl.Stats()
	if st.Queries == 0 {
		t.Fatal("no distributed queries recorded")
	}
	if st.PartitionsRouted+st.PartitionsPruned != st.Queries*int64(st.Partitions) {
		t.Errorf("routing legs %d+%d do not cover %d queries x %d partitions",
			st.PartitionsRouted, st.PartitionsPruned, st.Queries, st.Partitions)
	}
}
