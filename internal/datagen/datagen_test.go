package datagen

import (
	"context"
	"math/rand"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

func buildSearch(t *testing.T, db *sqldb.Database) (*graph.Graph, *core.Searcher) {
	t.Helper()
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return g, core.NewSearcher(g, ix)
}

func TestBuildDBLPDeterministic(t *testing.T) {
	db1, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	db2, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := db1.Stats(), db2.Stats()
	if s1 != s2 {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestDBLPSchemaFigure1(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Paper", "Author", "Writes", "Cites"} {
		if db.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	w := db.Table("Writes").Schema()
	if len(w.ForeignKeys) != 2 {
		t.Errorf("Writes FKs = %d", len(w.ForeignKeys))
	}
	c := db.Table("Cites").Schema()
	for _, fk := range c.ForeignKeys {
		if fk.Weight != 2 {
			t.Errorf("Cites FK weight = %v, want 2 (weaker link)", fk.Weight)
		}
	}
}

func TestDBLPSeededEntitiesPresent(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	authors := db.Table("Author")
	for _, id := range []string{AuthorCMohan, AuthorJimGray, AuthorSoumen, AuthorSunita, AuthorByron, AuthorStonebraker, AuthorSeltzer} {
		if authors.LookupPK([]sqldb.Value{sqldb.Text(id)}) < 0 {
			t.Errorf("missing seeded author %s", id)
		}
	}
	papers := db.Table("Paper")
	for _, id := range []string{PaperChakrabartiSD98, PaperGrayTransaction, PaperGrayReuterBook, PaperStonebrakerSelt, PaperStonebrakerSun} {
		if papers.LookupPK([]sqldb.Value{sqldb.Text(id)}) < 0 {
			t.Errorf("missing seeded paper %s", id)
		}
	}
}

func TestDBLPGraphScaleSmall(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 1000 {
		t.Errorf("small DBLP graph has only %d nodes", g.NumNodes())
	}
	if g.NumArcs() < 2*g.NumNodes() {
		t.Errorf("graph too sparse: %s", g)
	}
}

func TestDBLPCitationSkew(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.Build(db, nil)
	grayTC := g.NodeOf("Paper", db.Table("Paper").LookupPK([]sqldb.Value{sqldb.Text(PaperGrayTransaction)}))
	book := g.NodeOf("Paper", db.Table("Paper").LookupPK([]sqldb.Value{sqldb.Text(PaperGrayReuterBook)}))
	if g.Prestige(grayTC) <= g.Prestige(book) {
		t.Errorf("Gray'81 prestige (%v) should exceed the book's (%v)",
			g.Prestige(grayTC), g.Prestige(book))
	}
	// Both must be well above the median paper.
	lo, hi := g.NodesOfTable(g.TableID("Paper"))
	var above int
	for n := lo; n < hi; n++ {
		if g.Prestige(n) > g.Prestige(book) {
			above++
		}
	}
	if frac := float64(above) / float64(hi-lo); frac > 0.05 {
		t.Errorf("%.1f%% of papers outrank the book; want < 5%%", 100*frac)
	}
}

func TestAnecdoteMohan(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	answers, err := search(s, []string{"mohan"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 3 {
		t.Fatalf("mohan answers = %d, want >= 3", len(answers))
	}
	wantTop := g.NodeOf("Author", db.Table("Author").LookupPK([]sqldb.Value{sqldb.Text(AuthorCMohan)}))
	if answers[0].Root != wantTop {
		t.Errorf("top mohan answer should be C. Mohan (prestige %v), got %s rid %d",
			g.Prestige(wantTop), g.TableNameOf(answers[0].Root), g.RIDOf(answers[0].Root))
	}
}

func TestAnecdoteTransaction(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	answers, err := search(s, []string{"transaction"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 2 {
		t.Fatalf("transaction answers = %d", len(answers))
	}
	paperTbl := db.Table("Paper")
	gray := g.NodeOf("Paper", paperTbl.LookupPK([]sqldb.Value{sqldb.Text(PaperGrayTransaction)}))
	book := g.NodeOf("Paper", paperTbl.LookupPK([]sqldb.Value{sqldb.Text(PaperGrayReuterBook)}))
	if answers[0].Root != gray {
		t.Errorf("top transaction answer should be Gray'81")
	}
	if answers[1].Root != book {
		t.Errorf("second transaction answer should be the Gray–Reuter book")
	}
}

func TestAnecdoteSoumenSunita(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	answers, err := search(s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	paperTbl := db.Table("Paper")
	coauthored := map[graph.NodeID]bool{
		g.NodeOf("Paper", paperTbl.LookupPK([]sqldb.Value{sqldb.Text(PaperChakrabartiSD98)})): true,
		g.NodeOf("Paper", paperTbl.LookupPK([]sqldb.Value{sqldb.Text(PaperSoumenSunita2nd)})): true,
	}
	if !coauthored[answers[0].Root] {
		t.Errorf("top soumen-sunita answer rooted at %s[%d], want a coauthored paper",
			g.TableNameOf(answers[0].Root), g.RIDOf(answers[0].Root))
	}
}

func TestAnecdoteSeltzerSunitaViaStonebraker(t *testing.T) {
	db, err := BuildDBLP(SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	o.HeapSize = 50
	answers, err := search(s, []string{"seltzer", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no seltzer-sunita answers")
	}
	// The intuitive connection runs through Stonebraker (coauthor of
	// each); with edge log scaling it must appear among the top answers.
	stone := g.NodeOf("Author", db.Table("Author").LookupPK([]sqldb.Value{sqldb.Text(AuthorStonebraker)}))
	found := -1
	for i, a := range answers {
		if a.ContainsNode(stone) {
			found = i
			break
		}
	}
	if found < 0 || found > 4 {
		t.Errorf("Stonebraker bridge at rank %d, want top 5", found+1)
	}
}

func TestBuildThesisSeeds(t *testing.T) {
	db, err := BuildThesis(SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("department").LookupPK([]sqldb.Value{sqldb.Int(DeptCSE)}) < 0 {
		t.Error("missing CSE department")
	}
	if db.Table("faculty").LookupPK([]sqldb.Value{sqldb.Text(FacSudarshan)}) < 0 {
		t.Error("missing Sudarshan")
	}
	if db.Table("student").LookupPK([]sqldb.Value{sqldb.Text(StudentAditya)}) < 0 {
		t.Error("missing Aditya")
	}
	if db.Table("thesis").LookupPK([]sqldb.Value{sqldb.Text(ThesisAditya)}) < 0 {
		t.Error("missing Aditya's thesis")
	}
}

func TestAnecdoteComputerEngineering(t *testing.T) {
	db, err := BuildThesis(SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	answers, err := search(s, []string{"computer", "engineering"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	cse := g.NodeOf("department", db.Table("department").LookupPK([]sqldb.Value{sqldb.Int(DeptCSE)}))
	if answers[0].Root != cse {
		t.Errorf("top answer should be the CSE department, got %s[%d]",
			g.TableNameOf(answers[0].Root), g.RIDOf(answers[0].Root))
	}
}

func TestAnecdoteSudarshanAditya(t *testing.T) {
	db, err := BuildThesis(SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	o := core.DefaultOptions()
	answers, err := search(s, []string{"sudarshan", "aditya"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	thesis := g.NodeOf("thesis", db.Table("thesis").LookupPK([]sqldb.Value{sqldb.Text(ThesisAditya)}))
	if answers[0].Root != thesis {
		t.Errorf("top answer should be Aditya's thesis (advised by Sudarshan), got %s[%d]",
			g.TableNameOf(answers[0].Root), g.RIDOf(answers[0].Root))
	}
}

func TestBuildTPCDPrestige(t *testing.T) {
	db, err := BuildTPCD(SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	g, s := buildSearch(t, db)
	pop := g.NodeOf("part", db.Table("part").LookupPK([]sqldb.Value{sqldb.Int(PartPopular)}))
	unpop := g.NodeOf("part", db.Table("part").LookupPK([]sqldb.Value{sqldb.Int(PartUnpopular)}))
	if g.Prestige(pop) <= g.Prestige(unpop) {
		t.Fatalf("popular part prestige %v <= unpopular %v", g.Prestige(pop), g.Prestige(unpop))
	}
	// The §2.1 claim: a query matching both parts ranks the ordered one
	// higher.
	answers, err := search(s, []string{"steel", "widget"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 2 {
		t.Fatalf("steel widget answers = %d", len(answers))
	}
	if answers[0].Root != pop {
		t.Errorf("top part should be the popular widget")
	}
	if answers[1].Root != unpop {
		t.Errorf("second part should be the economy widget")
	}
}

func TestZipfIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		idx := zipfIndex(rng, 10)
		if idx < 0 || idx >= 10 {
			t.Fatalf("zipfIndex out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf should be head-heavy: %v", counts)
	}
	if zipfIndex(rng, 1) != 0 || zipfIndex(rng, 0) != 0 {
		t.Error("degenerate n should return 0")
	}
}

func TestAuthorsPerPaperRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		n := authorsPerPaper(rng, 2.5)
		if n < 1 || n > 4 {
			t.Fatalf("authorsPerPaper = %d", n)
		}
		total += n
	}
	mean := float64(total) / trials
	if mean < 1.7 || mean > 3.2 {
		t.Errorf("mean authors per paper = %v, want roughly 2.5", mean)
	}
}

// search runs a plain-terms request through core.Searcher.Query.
func search(s *core.Searcher, terms []string, opts *core.Options) ([]*core.Answer, error) {
	answers, _, err := s.Query(context.Background(), core.Request{Terms: terms}, opts, nil)
	return answers, err
}
