package banks

// Ablation tests for the design choices DESIGN.md calls out:
//
//	A2 — output-heap size vs rank quality (§3's approximate sorting)
//	A3 — backward-edge indegree scaling (§2.1's hub argument)
//	A4 — BANKS vs the Goldman et al. proximity baseline (§6)

import (
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/steiner"
)

func buildSmallDBLP(t *testing.T) (*sqldb.Database, *graph.Graph, *core.Searcher) {
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
	return db, g, core.NewSearcher(g, ix)
}

// TestOutputHeapAblation (A2): error scores should not degrade much as the
// output heap shrinks — the paper "found it works well even with a
// reasonably small heap size" — but a heap of 1 (no reordering buffer)
// must not beat a large heap.
func TestOutputHeapAblation(t *testing.T) {
	db, g, s := buildSmallDBLP(t)
	queries, err := eval.DBLPSuite(db, g)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(heap int) float64 {
		opts := eval.DefaultDBLPOptions()
		opts.HeapSize = heap
		scaled, err := eval.ScaledError(s, queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		return scaled
	}
	e1, e20, e200 := errAt(1), errAt(20), errAt(200)
	t.Logf("scaled error: heap=1 %.1f, heap=20 %.1f, heap=200 %.1f", e1, e20, e200)
	if e20 > e1+5 {
		t.Errorf("default heap (%.1f) much worse than heap=1 (%.1f)", e20, e1)
	}
	if e200 > e20+10 {
		t.Errorf("large heap (%.1f) much worse than default (%.1f)", e200, e20)
	}
	// The paper's claim: a reasonably small heap suffices.
	if e20 > 15 {
		t.Errorf("heap=20 error = %.1f, want small", e20)
	}
}

// TestHubBackwardEdgeAblation (A3): in a university-style database, two
// students of a large department must be less proximate than two students
// of a small one — but only when backward edges scale with indegree.
func TestHubBackwardEdgeAblation(t *testing.T) {
	build := func(scale bool) (*graph.Graph, [4]graph.NodeID) {
		db := sqldb.NewDatabase()
		if _, err := db.CreateTable(&sqldb.TableSchema{
			Name:       "dept",
			Columns:    []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}, {Name: "name", Type: sqldb.TypeText}},
			PrimaryKey: []string{"id"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable(&sqldb.TableSchema{
			Name: "student",
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TypeInt, NotNull: true},
				{Name: "dept", Type: sqldb.TypeInt},
			},
			PrimaryKey:  []string{"id"},
			ForeignKeys: []sqldb.ForeignKey{{Column: "dept", RefTable: "dept"}},
		}); err != nil {
			t.Fatal(err)
		}
		db.Insert("dept", []sqldb.Value{sqldb.Int(1), sqldb.Text("big")})
		db.Insert("dept", []sqldb.Value{sqldb.Int(2), sqldb.Text("small")})
		id := int64(10)
		var nodes [4]graph.NodeID
		// 50 students in the big department, 2 in the small one.
		for i := 0; i < 50; i++ {
			if _, err := db.Insert("student", []sqldb.Value{sqldb.Int(id), sqldb.Int(1)}); err != nil {
				t.Fatal(err)
			}
			id++
		}
		var smallRIDs []sqldb.RID
		for i := 0; i < 2; i++ {
			rid, _ := db.Insert("student", []sqldb.Value{sqldb.Int(id), sqldb.Int(2)})
			smallRIDs = append(smallRIDs, rid)
			id++
		}
		g, err := graph.Build(db, &graph.BuildOptions{ScaleBackEdges: scale})
		if err != nil {
			t.Fatal(err)
		}
		nodes[0] = g.NodeOf("student", 0)
		nodes[1] = g.NodeOf("student", 1)
		nodes[2] = g.NodeOf("student", smallRIDs[0])
		nodes[3] = g.NodeOf("student", smallRIDs[1])
		return g, nodes
	}

	// With scaling: the big-department pair is farther apart.
	g, n := build(true)
	bigPair := steiner.PairMinWeight(g, n[0], n[1])
	smallPair := steiner.PairMinWeight(g, n[2], n[3])
	if !(smallPair < bigPair) {
		t.Errorf("scaled: small-dept pair weight %v should beat big-dept %v", smallPair, bigPair)
	}

	// Without scaling: both pairs look equally close — the hub problem.
	g2, n2 := build(false)
	bigPair2 := steiner.PairMinWeight(g2, n2[0], n2[1])
	smallPair2 := steiner.PairMinWeight(g2, n2[2], n2[3])
	if bigPair2 != smallPair2 {
		t.Errorf("unscaled: pairs should tie, got big=%v small=%v", bigPair2, smallPair2)
	}
}

// TestProximityBaselineComparison (A4): the Goldman-style baseline finds
// the same connecting paper for a coauthor query, but returns a flat tuple
// (no explanation tree) and ignores prestige — the two §6 differences the
// paper highlights.
func TestProximityBaselineComparison(t *testing.T) {
	db, g, s := buildSmallDBLP(t)
	ix := s.Index()
	soumen := ix.Lookup("soumen").Nodes
	sunita := ix.Lookup("sunita").Nodes
	if len(soumen) == 0 || len(sunita) == 0 {
		t.Fatal("missing keywords")
	}
	prox, err := steiner.ProximitySearch(g, "Paper", [][]graph.NodeID{soumen, sunita}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(prox) == 0 {
		t.Fatal("no proximity results")
	}
	coauthored := map[graph.NodeID]bool{
		g.NodeOf("Paper", db.Table("Paper").LookupPK([]sqldb.Value{sqldb.Text(datagen.PaperChakrabartiSD98)})): true,
		g.NodeOf("Paper", db.Table("Paper").LookupPK([]sqldb.Value{sqldb.Text(datagen.PaperSoumenSunita2nd)})): true,
	}
	if !coauthored[prox[0].Node] {
		t.Errorf("proximity top = node %d, want a coauthored paper", prox[0].Node)
	}
	// BANKS agrees on the connection but explains it with a tree.
	answers, err := searchCore(s, []string{"soumen", "sunita"}, eval.DefaultDBLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no BANKS answers")
	}
	if !coauthored[answers[0].Root] {
		t.Errorf("BANKS top root should be a coauthored paper")
	}
	if len(answers[0].Edges) == 0 {
		t.Error("BANKS answer should carry the explanation tree")
	}
}
