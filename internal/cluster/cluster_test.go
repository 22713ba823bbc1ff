package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/store"
)

// buildEngine builds the small-DBLP engine every split test shards.
func buildEngine(t *testing.T) store.Engine {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return store.Engine{Graph: g, Index: ix}
}

// TestSketchRoundTrip: encode/decode is lossless over a real index, and
// membership answers match the index term-for-term.
func TestSketchRoundTrip(t *testing.T) {
	eng := buildEngine(t)
	sk, err := BuildSketch(eng.Index)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSketch(sk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk, back) {
		t.Fatal("sketch does not round-trip through Encode/Decode")
	}
	err = eng.Index.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		if !back.Has(tok) {
			t.Errorf("indexed term %q missing from the sketch", tok)
		}
		if df := back.DF(tok); df < uint64(len(ns)) {
			t.Errorf("term %q df %d below its posting count %d", tok, df, len(ns))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.Has("no-such-term-in-the-corpus") {
		t.Error("sketch claims a term the index never saw")
	}
}

// TestSketchDecodeRejectsCorruption: truncated or trailing bytes must
// error, never yield a silently-wrong router.
func TestSketchDecodeRejectsCorruption(t *testing.T) {
	eng := buildEngine(t)
	sk, err := BuildSketch(eng.Index)
	if err != nil {
		t.Fatal(err)
	}
	enc := sk.Encode()
	if _, err := DecodeSketch(enc[:len(enc)/2]); err == nil {
		t.Error("truncated sketch decoded without error")
	}
	if _, err := DecodeSketch(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Error("sketch with trailing bytes decoded without error")
	}
	if _, err := DecodeSketch([]byte{99}); err == nil {
		t.Error("unknown sketch version decoded without error")
	}
}

// TestAssignContiguousCover: the (table, row-range) cut assigns every
// node exactly once, in nondecreasing partition order within each table.
func TestAssignContiguousCover(t *testing.T) {
	eng := buildEngine(t)
	for _, parts := range []int{1, 2, 3, 7} {
		assign := Assign(eng.Graph, parts)
		if len(assign) != eng.Graph.NumNodes() {
			t.Fatalf("parts=%d: assignment covers %d nodes, want %d", parts, len(assign), eng.Graph.NumNodes())
		}
		for tid := int32(0); tid < int32(eng.Graph.NumTables()); tid++ {
			lo, hi := eng.Graph.NodesOfTable(tid)
			prev := 0
			for n := lo; n < hi; n++ {
				p := assign[n]
				if p < 0 || p >= parts {
					t.Fatalf("parts=%d: node %d assigned to %d", parts, n, p)
				}
				if p < prev {
					t.Fatalf("parts=%d: table %d rows not contiguous: partition %d after %d", parts, tid, p, prev)
				}
				prev = p
			}
		}
	}
}

// TestSplitEngineDisjointCover: partitions hold disjoint node sets that
// union to the source, every partition carries all tables, the global
// normalizers, and a sketch.
func TestSplitEngineDisjointCover(t *testing.T) {
	eng := buildEngine(t)
	const parts = 3
	engines, err := SplitEngine(eng, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != parts {
		t.Fatalf("got %d engines, want %d", len(engines), parts)
	}
	seen := make(map[string]int) // "table/rid" -> partition
	totalNodes := 0
	for p, pe := range engines {
		if pe.Graph.NumTables() != eng.Graph.NumTables() {
			t.Fatalf("partition %d has %d tables, want %d", p, pe.Graph.NumTables(), eng.Graph.NumTables())
		}
		if pe.Graph.MinEdgeWeight() != eng.Graph.MinEdgeWeight() ||
			pe.Graph.MaxNodeWeight() != eng.Graph.MaxNodeWeight() {
			t.Fatalf("partition %d lost the global normalizers", p)
		}
		if len(pe.TermStats) == 0 {
			t.Fatalf("partition %d has no term-statistics sketch", p)
		}
		totalNodes += pe.Graph.NumNodes()
		for n := graph.NodeID(0); int(n) < pe.Graph.NumNodes(); n++ {
			key := fmt.Sprintf("%s/%d", pe.Graph.TableNameOf(n), pe.Graph.RIDOf(n))
			if prev, dup := seen[key]; dup {
				t.Fatalf("node %s in partitions %d and %d", key, prev, p)
			}
			seen[key] = p
		}
	}
	if totalNodes != eng.Graph.NumNodes() {
		t.Fatalf("partitions hold %d nodes, source has %d", totalNodes, eng.Graph.NumNodes())
	}
}

// TestBrokerNeverPrunesMatchingPartition is the routing-safety property
// over randomized splits: shard the real engine into a random partition
// count, then for every indexed term, every partition holding a posting
// (or a metadata match) for that term must be routed — pruning may only
// drop partitions that provably cannot match.
func TestBrokerNeverPrunesMatchingPartition(t *testing.T) {
	eng := buildEngine(t)
	rng := rand.New(rand.NewSource(2))
	terms := make([]string, 0, 1024)
	err := eng.Index.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		terms = append(terms, tok)
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		parts := 2 + rng.Intn(5)
		engines, err := SplitEngine(eng, parts)
		if err != nil {
			t.Fatal(err)
		}
		sketches := make([]*Sketch, parts)
		for p, pe := range engines {
			if sketches[p], err = DecodeSketch(pe.TermStats); err != nil {
				t.Fatal(err)
			}
		}
		b := NewBroker(sketches)
		// has[p][term]: ground truth from the partition indexes.
		has := make([]map[string]bool, parts)
		for p, pe := range engines {
			has[p] = make(map[string]bool)
			err := pe.Index.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
				if len(ns) > 0 {
					has[p][tok] = true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		// Single-term queries: exhaustive over the source vocabulary.
		for _, tok := range terms {
			routed := toSet(b.Route([]string{tok}, false, false))
			for p := 0; p < parts; p++ {
				if has[p][tok] && !routed[p] {
					t.Fatalf("parts=%d: partition %d matches %q but was pruned", parts, p, tok)
				}
			}
		}
		// Random multi-term queries, with and without requireAll.
		for q := 0; q < 200; q++ {
			k := 1 + rng.Intn(3)
			query := make([]string, k)
			for i := range query {
				query[i] = terms[rng.Intn(len(terms))]
			}
			routed := toSet(b.Route(query, false, false))
			routedAll := toSet(b.Route(query, true, false))
			for p := 0; p < parts; p++ {
				any, all := false, true
				for _, tok := range query {
					if has[p][tok] {
						any = true
					} else {
						all = false
					}
				}
				if any && !routed[p] {
					t.Fatalf("parts=%d: partition %d matches %v but was pruned", parts, p, query)
				}
				if all && !routedAll[p] {
					t.Fatalf("parts=%d: partition %d matches all of %v but was pruned under requireAll", parts, p, query)
				}
			}
		}
		// scatterAll must defeat pruning entirely.
		if got := b.Route([]string{"zz-not-a-term"}, false, true); len(got) != parts {
			t.Fatalf("scatterAll routed %d of %d partitions", len(got), parts)
		}
	}
}

func toSet(ps []int) map[int]bool {
	m := make(map[int]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

// TestMergeAnswersDeterministic: the multi-list merge is invariant under
// the order partitions happen to report in, and a single non-empty list
// passes through verbatim (the 1-partition golden-parity path).
func TestMergeAnswersDeterministic(t *testing.T) {
	tids := map[string]int32{"author": 0, "paper": 1}
	mk := func(score float64, table string, rid int64) Answer {
		return Answer{Score: score, Root: Ref{Table: table, RID: rid}}
	}
	a := []Answer{mk(0.9, "paper", 3), mk(0.5, "author", 1)}
	b := []Answer{mk(0.9, "author", 2), mk(0.7, "paper", 1)}
	c := []Answer{mk(0.5, "author", 9)}

	want := MergeAnswers(tids, [][]Answer{a, b, c}, 4)
	perms := [][][]Answer{{b, c, a}, {c, a, b}, {b, a, c}}
	for i, lists := range perms {
		if got := MergeAnswers(tids, lists, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %d merged differently:\n%v\nwant\n%v", i, got, want)
		}
	}
	// Ties broke by canonical (table, rid) key, scores descending overall.
	if !sort.SliceIsSorted(want, func(i, j int) bool {
		return want[i].Score > want[j].Score
	}) && len(want) > 1 {
		t.Fatalf("merge is not score-sorted: %v", want)
	}
	if want[0].Root != (Ref{Table: "author", RID: 2}) {
		t.Fatalf("tie at 0.9 broke to %v, want author/2 (lower table id first)", want[0].Root)
	}
	for i := range want {
		if want[i].Rank != i+1 {
			t.Fatalf("rank %d at position %d", want[i].Rank, i)
		}
	}

	// Single contributor: emission order preserved verbatim, even when it
	// disagrees with the canonical multi-list order.
	odd := []Answer{mk(0.2, "paper", 1), mk(0.8, "author", 1)}
	got := MergeAnswers(tids, [][]Answer{nil, odd, nil}, 0)
	if got[0].Root != odd[0].Root || got[1].Root != odd[1].Root {
		t.Fatalf("single-list merge reordered: %v", got)
	}
}

// TestRetiredStatsTravelAndSum: the count of retired iterators survives the
// conversion to wire form and its JSON round trip and sums across legs, so a
// cluster query's stats say when its legs ended early.
func TestRetiredStatsTravelAndSum(t *testing.T) {
	b, err := json.Marshal(StatsFromCore(&core.Stats{Pops: 7, Retired: 3}))
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Retired; got != 3 {
		t.Fatalf("retired = %d after the round trip, want 3", got)
	}
	terms := []string{"a", "b"}
	merged := MergeStats([]Stats{{Terms: terms, Retired: 3}, {Terms: terms, Retired: 4}, {Terms: terms}}, terms)
	if merged.Retired != 7 {
		t.Fatalf("merged retired = %d, want 7", merged.Retired)
	}
}

// TestSplitStoreAndRemoteParity covers the full distribution stack: a
// store split on disk, one partition served over HTTP, and the remote
// adapter answering byte-identically to the in-process partition.
func TestSplitStoreAndRemoteParity(t *testing.T) {
	eng := buildEngine(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.banks")
	if err := store.WriteFile(src, eng); err != nil {
		t.Fatal(err)
	}
	paths := PartitionPaths(filepath.Join(dir, "part.banks"), 2)
	if err := SplitStore(src, paths); err != nil {
		t.Fatal(err)
	}

	local, err := OpenLocal("p0", paths[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	srv := httptest.NewServer(Handler(local))
	defer srv.Close()
	remote := NewRemote("p0-remote", srv.URL, srv.Client())

	ctx := context.Background()
	lm, err := local.Meta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := remote.Meta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rm.Name = lm.Name // the adapters name themselves differently
	if !reflect.DeepEqual(lm, rm) {
		t.Fatalf("remote meta %+v, want local %+v", rm, lm)
	}

	req := RequestFromOptions([]string{"soumen", "sunita"}, false, false, core.DefaultOptions())
	lr, err := local.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remote.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// BytesFaulted depends on which run touched the store's segments
	// first — both legs hit the same open store, so the second faults
	// nothing. Everything else must agree exactly.
	lr.Stats.BytesFaulted, rr.Stats.BytesFaulted = 0, 0
	if !reflect.DeepEqual(lr, rr) {
		t.Fatalf("remote result differs from local:\n%+v\nwant\n%+v", rr, lr)
	}
}

// TestCoordinatorRoutingStats: the coordinator counts routed and pruned
// legs, stamps the routing decision into the merged stats, and reports
// the partition-local bound exactly when more than one partition exists.
func TestCoordinatorRoutingStats(t *testing.T) {
	eng := buildEngine(t)
	engines, err := SplitEngine(eng, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]Partition, len(engines))
	for i, pe := range engines {
		parts[i] = NewLocalEngine(fmt.Sprintf("p%d", i), pe.Graph, pe.Index, pe.TermStats)
	}
	coord, err := NewCoordinator(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}
	req := RequestFromOptions([]string{"soumen"}, false, false, core.DefaultOptions())
	res, err := coord.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PartitionsTotal != 3 {
		t.Errorf("PartitionsTotal %d, want 3", st.PartitionsTotal)
	}
	if st.PartitionsRouted+st.PartitionsPruned != st.PartitionsTotal {
		t.Errorf("routed %d + pruned %d != total %d", st.PartitionsRouted, st.PartitionsPruned, st.PartitionsTotal)
	}
	if st.PartitionsRouted < 1 {
		t.Error("no partition routed for an indexed term")
	}
	if !st.PartitionLocalBound {
		t.Error("multi-partition query did not report the partition-local bound")
	}
	r := coord.Routing()
	if r.Queries != 1 || r.PartitionsRouted != int64(st.PartitionsRouted) || r.PartitionsPruned != int64(st.PartitionsPruned) {
		t.Errorf("cumulative routing %+v disagrees with per-query stats %+v", r, st)
	}
}
