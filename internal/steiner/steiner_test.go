package steiner

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// newChainDB builds authors a0..a(n-1), papers p0..p(n-2) where paper pi is
// written by ai and a(i+1): a path of coauthorships.
func newChainDB(t *testing.T, n int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name: "author",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "name", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"id"},
	})
	db.CreateTable(&sqldb.TableSchema{
		Name: "paper",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "title", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"id"},
	})
	db.CreateTable(&sqldb.TableSchema{
		Name: "writes",
		Columns: []sqldb.Column{
			{Name: "aid", Type: sqldb.TypeInt},
			{Name: "pid", Type: sqldb.TypeInt},
		},
		ForeignKeys: []sqldb.ForeignKey{
			{Column: "aid", RefTable: "author"},
			{Column: "pid", RefTable: "paper"},
		},
	})
	for i := 0; i < n; i++ {
		db.Insert("author", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Text("author" + string(rune('a'+i)))})
	}
	for i := 0; i < n-1; i++ {
		db.Insert("paper", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Text("paper")})
		db.Insert("writes", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Int(int64(i))})
		db.Insert("writes", []sqldb.Value{sqldb.Int(int64(i + 1)), sqldb.Int(int64(i))})
	}
	return db
}

func buildAll(t *testing.T, db *sqldb.Database) (*graph.Graph, *index.Index) {
	t.Helper()
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

func authorNode(t *testing.T, db *sqldb.Database, g *graph.Graph, id int64) graph.NodeID {
	t.Helper()
	rid := db.Table("author").LookupPK([]sqldb.Value{sqldb.Int(id)})
	n := g.NodeOf("author", rid)
	if n == graph.NoNode {
		t.Fatalf("author %d has no node", id)
	}
	return n
}

func TestMinConnectionTreeAdjacentAuthors(t *testing.T) {
	db := newChainDB(t, 4)
	g, _ := buildAll(t, db)
	a0 := authorNode(t, db, g, 0)
	a1 := authorNode(t, db, g, 1)
	// Adjacent authors connect through their shared paper's two writes
	// tuples. Cheapest tree: rooted at one writes tuple: w->a0 (1) and
	// w->p->w'->a1... or rooted at the paper: p->w0->a0, p->w1->a1 with
	// backward p->w weights of 1 each (single-author-per-writes indegree
	// is 1 per writes tuple: each writes row references p once; two writes
	// rows of the same relation -> IN_writes(p)=2, so back edges cost 2).
	// The independent PairMinWeight oracle defines truth here.
	want := PairMinWeight(g, a0, a1)
	got, root, err := MinConnectionTree(g, [][]graph.NodeID{{a0}, {a1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("exact = %v, pair oracle = %v", got, want)
	}
	if root == graph.NoNode {
		t.Error("no witness root")
	}
}

func TestMinConnectionTreeMatchesPairOracleRandom(t *testing.T) {
	db := newChainDB(t, 7)
	g, _ := buildAll(t, db)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		i := int64(rng.Intn(7))
		j := int64(rng.Intn(7))
		if i == j {
			continue
		}
		a, b := authorNode(t, db, g, i), authorNode(t, db, g, j)
		want := PairMinWeight(g, a, b)
		got, _, err := MinConnectionTree(g, [][]graph.NodeID{{a}, {b}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("authors %d,%d: exact=%v oracle=%v", i, j, got, want)
		}
	}
}

func TestMinConnectionTreeThreeGroups(t *testing.T) {
	db := newChainDB(t, 5)
	g, _ := buildAll(t, db)
	a0 := authorNode(t, db, g, 0)
	a2 := authorNode(t, db, g, 2)
	a4 := authorNode(t, db, g, 4)
	w3, _, err := MinConnectionTree(g, [][]graph.NodeID{{a0}, {a2}, {a4}})
	if err != nil {
		t.Fatal(err)
	}
	w2, _, _ := MinConnectionTree(g, [][]graph.NodeID{{a0}, {a4}})
	if w3 < w2-1e-9 {
		t.Errorf("3-terminal tree (%v) cannot be lighter than its 2-terminal subproblem (%v)", w3, w2)
	}
	if math.IsInf(w3, 1) {
		t.Error("chain is connected; weight should be finite")
	}
}

func TestMinConnectionTreeGroupSemantics(t *testing.T) {
	db := newChainDB(t, 6)
	g, _ := buildAll(t, db)
	a0 := authorNode(t, db, g, 0)
	near := authorNode(t, db, g, 1)
	far := authorNode(t, db, g, 5)
	// Group {near, far}: the optimum should use the near member.
	wGroup, _, err := MinConnectionTree(g, [][]graph.NodeID{{a0}, {near, far}})
	if err != nil {
		t.Fatal(err)
	}
	wNear, _, _ := MinConnectionTree(g, [][]graph.NodeID{{a0}, {near}})
	if math.Abs(wGroup-wNear) > 1e-9 {
		t.Errorf("group optimum %v should equal near-member optimum %v", wGroup, wNear)
	}
}

func TestMinConnectionTreeDisconnected(t *testing.T) {
	db := newChainDB(t, 3)
	// An isolated island.
	db.CreateTable(&sqldb.TableSchema{
		Name:       "island",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}, {Name: "t", Type: sqldb.TypeText}},
		PrimaryKey: []string{"id"},
	})
	db.Insert("island", []sqldb.Value{sqldb.Int(1), sqldb.Text("alone")})
	g, _ := buildAll(t, db)
	a0 := authorNode(t, db, g, 0)
	iso := g.NodeOf("island", 0)
	w, _, err := MinConnectionTree(g, [][]graph.NodeID{{a0}, {iso}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(w, 1) {
		t.Errorf("disconnected terminals should give Inf, got %v", w)
	}
}

func TestMinConnectionTreeErrors(t *testing.T) {
	db := newChainDB(t, 3)
	g, _ := buildAll(t, db)
	if _, _, err := MinConnectionTree(g, nil); err == nil {
		t.Error("no groups should error")
	}
	if _, _, err := MinConnectionTree(g, [][]graph.NodeID{{}}); err == nil {
		t.Error("empty group should error")
	}
	groups := make([][]graph.NodeID, 13)
	for i := range groups {
		groups[i] = []graph.NodeID{0}
	}
	if _, _, err := MinConnectionTree(g, groups); err == nil {
		t.Error("too many groups should error")
	}
}

// TestHeuristicVsExactSteiner (ablation A1): the heuristic's best answer is
// a valid connection tree whose weight is at worst a small factor above the
// exact optimum on chain graphs.
func TestHeuristicVsExactSteiner(t *testing.T) {
	db := newChainDB(t, 8)
	g, ix := buildAll(t, db)
	s := core.NewSearcher(g, ix)
	rng := rand.New(rand.NewSource(42))
	var worst float64 = 1
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(8)
		j := rng.Intn(8)
		if i == j {
			continue
		}
		a := authorNode(t, db, g, int64(i))
		b := authorNode(t, db, g, int64(j))
		exact, _, err := MinConnectionTree(g, [][]graph.NodeID{{a}, {b}})
		if err != nil {
			t.Fatal(err)
		}
		o := core.DefaultOptions()
		o.Score = core.ScoreOptions{Lambda: 0} // pure proximity
		o.HeapSize = 100
		answers, _, err := s.Query(context.Background(), core.Request{Terms: []string{"author" + string(rune('a'+i)), "author" + string(rune('a'+j))}}, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) == 0 {
			t.Fatalf("no heuristic answer for authors %d,%d", i, j)
		}
		best := answers[0].Weight
		for _, ans := range answers {
			if ans.Weight < best {
				best = ans.Weight
			}
		}
		if best < exact-1e-9 {
			t.Errorf("heuristic weight %v beats exact optimum %v: exact solver is wrong", best, exact)
		}
		if ratio := best / exact; ratio > worst {
			worst = ratio
		}
	}
	// The backward expanding heuristic is optimal for two terminals on
	// these graphs (it roots trees at the meeting vertex of shortest
	// paths); allow slack for ties broken by pruning rules.
	if worst > 1.5 {
		t.Errorf("worst heuristic/exact ratio = %v, want <= 1.5", worst)
	}
}

func TestProximitySearchBaseline(t *testing.T) {
	db := newChainDB(t, 5)
	g, ix := buildAll(t, db)
	a0 := ix.Lookup("authora").Nodes
	a1 := ix.Lookup("authorb").Nodes
	if len(a0) != 1 || len(a1) != 1 {
		t.Fatalf("lookup: %v %v", a0, a1)
	}
	// Papers nearest to both a0 and a1: paper 0 (written by both).
	res, err := ProximitySearch(g, "paper", [][]graph.NodeID{a0, a1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no proximity results")
	}
	p0 := g.NodeOf("paper", db.Table("paper").LookupPK([]sqldb.Value{sqldb.Int(0)}))
	if res[0].Node != p0 {
		t.Errorf("top proximity result = node %d, want paper 0 (node %d)", res[0].Node, p0)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score < res[i-1].Score {
			t.Error("proximity results not sorted")
		}
	}
}

func TestProximitySearchErrors(t *testing.T) {
	db := newChainDB(t, 3)
	g, _ := buildAll(t, db)
	if _, err := ProximitySearch(g, "nosuch", [][]graph.NodeID{{0}}, 5); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := ProximitySearch(g, "paper", nil, 5); err == nil {
		t.Error("no groups should error")
	}
	if _, err := ProximitySearch(g, "paper", [][]graph.NodeID{{}}, 5); err == nil {
		t.Error("empty group should error")
	}
}

func TestForwardDistances(t *testing.T) {
	db := newChainDB(t, 3)
	g, _ := buildAll(t, db)
	a0 := authorNode(t, db, g, 0)
	dist := ForwardDistances(g, []graph.NodeID{a0})
	if dist[a0] != 0 {
		t.Errorf("dist to self = %v", dist[a0])
	}
	// The writes tuple referencing a0 is 1 away (forward arc w->a0).
	found := false
	for v := 0; v < g.NumNodes(); v++ {
		if g.TableNameOf(graph.NodeID(v)) == "writes" && dist[v] == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no writes tuple at forward distance 1")
	}
}
