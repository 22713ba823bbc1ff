package core

import (
	"context"
	"math"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// fixture bundles a database with its graph, index and searcher.
type fixture struct {
	db *sqldb.Database
	g  *graph.Graph
	ix *index.Index
	s  *Searcher
}

// searchTerms runs a plain-terms request through Searcher.Query with no
// answer callback.
func searchTerms(s *Searcher, terms []string, opts *Options) ([]*Answer, *Stats, error) {
	return s.Query(context.Background(), Request{Terms: terms}, opts, nil)
}

func newFixture(t *testing.T, db *sqldb.Database) *fixture {
	t.Helper()
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, g: g, ix: ix, s: NewSearcher(g, ix)}
}

// newBibFixture builds the Figure 1 fragment: ChakrabartiSD98 written by
// Soumen, Sunita and Byron, plus a second Soumen–Sunita paper, a prolific
// author (Mohan) and citation structure for prestige.
func newBibFixture(t *testing.T) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	mk := func(s *sqldb.TableSchema) {
		t.Helper()
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	mk(&sqldb.TableSchema{
		Name: "Paper",
		Columns: []sqldb.Column{
			{Name: "PaperId", Type: sqldb.TypeText, NotNull: true},
			{Name: "PaperName", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"PaperId"},
	})
	mk(&sqldb.TableSchema{
		Name: "Author",
		Columns: []sqldb.Column{
			{Name: "AuthorId", Type: sqldb.TypeText, NotNull: true},
			{Name: "AuthorName", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"AuthorId"},
	})
	mk(&sqldb.TableSchema{
		Name: "Writes",
		Columns: []sqldb.Column{
			{Name: "AuthorId", Type: sqldb.TypeText},
			{Name: "PaperId", Type: sqldb.TypeText},
		},
		ForeignKeys: []sqldb.ForeignKey{
			{Column: "AuthorId", RefTable: "Author"},
			{Column: "PaperId", RefTable: "Paper"},
		},
	})
	mk(&sqldb.TableSchema{
		Name: "Cites",
		Columns: []sqldb.Column{
			{Name: "Citing", Type: sqldb.TypeText},
			{Name: "Cited", Type: sqldb.TypeText},
		},
		ForeignKeys: []sqldb.ForeignKey{
			{Column: "Citing", RefTable: "Paper", Weight: 2},
			{Column: "Cited", RefTable: "Paper", Weight: 2},
		},
	})
	authors := map[string]string{
		"SoumenC": "Soumen Chakrabarti",
		"SunitaS": "Sunita Sarawagi",
		"ByronD":  "Byron Dom",
		"MohanC":  "C. Mohan",
		"MohanA":  "Mohan Ahuja",
	}
	for id, name := range authors {
		if _, err := db.Insert("Author", []sqldb.Value{sqldb.Text(id), sqldb.Text(name)}); err != nil {
			t.Fatal(err)
		}
	}
	papers := map[string]string{
		"ChakrabartiSD98": "Mining Surprising Patterns Using Temporal Description Length",
		"SecondPaper":     "Enhanced Rules For Surprising Sequences",
		"Aries":           "ARIES Recovery Method",
		"Aries2":          "ARIES IM Concurrency",
		"AhujaPaper":      "Flooding Protocols",
	}
	for id, name := range papers {
		if _, err := db.Insert("Paper", []sqldb.Value{sqldb.Text(id), sqldb.Text(name)}); err != nil {
			t.Fatal(err)
		}
	}
	writes := [][2]string{
		{"SoumenC", "ChakrabartiSD98"}, {"SunitaS", "ChakrabartiSD98"}, {"ByronD", "ChakrabartiSD98"},
		{"SoumenC", "SecondPaper"}, {"SunitaS", "SecondPaper"},
		{"MohanC", "Aries"}, {"MohanC", "Aries2"},
		{"MohanA", "AhujaPaper"},
	}
	for _, w := range writes {
		if _, err := db.Insert("Writes", []sqldb.Value{sqldb.Text(w[0]), sqldb.Text(w[1])}); err != nil {
			t.Fatal(err)
		}
	}
	// Citations give ARIES prestige.
	cites := [][2]string{
		{"Aries2", "Aries"}, {"ChakrabartiSD98", "Aries"}, {"SecondPaper", "Aries"},
	}
	for _, c := range cites {
		if _, err := db.Insert("Cites", []sqldb.Value{sqldb.Text(c[0]), sqldb.Text(c[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return newFixture(t, db)
}

func (f *fixture) node(t *testing.T, table string, pk string) graph.NodeID {
	t.Helper()
	tbl := f.db.Table(table)
	rid := tbl.LookupPK([]sqldb.Value{sqldb.Text(pk)})
	if rid < 0 {
		t.Fatalf("no %s row %q", table, pk)
	}
	n := f.g.NodeOf(table, rid)
	if n == graph.NoNode {
		t.Fatalf("no node for %s/%s", table, pk)
	}
	return n
}

func defaultBibOptions() *Options {
	o := DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	return o
}

func TestCoauthorQueryFindsPaperRoot(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	// The two coauthored papers should be the top answers, each rooted at
	// the paper with paths to both author tuples through Writes.
	want := map[graph.NodeID]bool{
		f.node(t, "Paper", "ChakrabartiSD98"): true,
		f.node(t, "Paper", "SecondPaper"):     true,
	}
	for i := 0; i < 2 && i < len(answers); i++ {
		if !want[answers[i].Root] {
			t.Errorf("answer %d rooted at %s[%d], want a coauthored paper",
				i+1, f.g.TableNameOf(answers[i].Root), f.g.RIDOf(answers[i].Root))
		}
	}
	a := answers[0]
	soumen := f.node(t, "Author", "SoumenC")
	sunita := f.node(t, "Author", "SunitaS")
	if !a.ContainsNode(soumen) || !a.ContainsNode(sunita) {
		t.Errorf("top answer should contain both author nodes: %s", a.Describe(f.g))
	}
	// Figure 1(B): paper -> writes -> author on both sides = 4 edges.
	if len(a.Edges) != 4 {
		t.Errorf("edges = %d, want 4\n%s", len(a.Edges), a.Describe(f.g))
	}
}

func TestThreeKeywordQuery(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita", "byron"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	if got, want := answers[0].Root, f.node(t, "Paper", "ChakrabartiSD98"); got != want {
		t.Errorf("top root = %s[%d], want ChakrabartiSD98",
			f.g.TableNameOf(got), f.g.RIDOf(got))
	}
	if len(answers[0].Edges) != 6 {
		t.Errorf("edges = %d, want 6 (paper + 3 writes + 3 authors)", len(answers[0].Edges))
	}
}

func TestSingleTermPrestigeRanking(t *testing.T) {
	f := newBibFixture(t)
	// "mohan" matches C. Mohan (2 papers -> prestige 2) and Mohan Ahuja
	// (1 paper -> prestige 1): the §5.1 "Mohan" anecdote.
	answers, _, err := searchTerms(f.s, []string{"mohan"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(answers))
	}
	if answers[0].Root != f.node(t, "Author", "MohanC") {
		t.Errorf("top answer should be C. Mohan")
	}
	if answers[0].Rank != 1 || answers[1].Rank != 2 {
		t.Errorf("ranks = %d, %d", answers[0].Rank, answers[1].Rank)
	}
	if len(answers[0].Edges) != 0 {
		t.Errorf("single-term answers must be single nodes")
	}
}

func TestAnswersAreValidConnectionTrees(t *testing.T) {
	f := newBibFixture(t)
	queries := [][]string{
		{"soumen", "sunita"},
		{"soumen", "byron"},
		{"mohan", "aries"},
		{"surprising", "sunita"},
		{"soumen", "sunita", "byron"},
	}
	for _, q := range queries {
		answers, _, err := searchTerms(f.s, q, defaultBibOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			assertConnectionTree(t, f.g, a)
		}
	}
}

// assertConnectionTree checks the §2 answer invariants: edges exist in the
// graph with correct weights, every non-root node has exactly one parent,
// the root has none, no cycles, and every term node is reachable from the
// root.
func assertConnectionTree(t *testing.T, g *graph.Graph, a *Answer) {
	t.Helper()
	parent := make(map[graph.NodeID]graph.NodeID)
	children := make(map[graph.NodeID][]graph.NodeID)
	for _, e := range a.Edges {
		if w := g.ArcWeight(e.From, e.To); w != e.W {
			t.Errorf("edge %d->%d weight %v, graph says %v", e.From, e.To, e.W, w)
		}
		if p, dup := parent[e.To]; dup {
			t.Errorf("node %d has two parents (%d and %d): not a tree", e.To, p, e.From)
		}
		parent[e.To] = e.From
		children[e.From] = append(children[e.From], e.To)
	}
	if _, hasParent := parent[a.Root]; hasParent {
		t.Errorf("root %d has a parent", a.Root)
	}
	// Reachability from root.
	reach := map[graph.NodeID]bool{a.Root: true}
	stack := []graph.NodeID{a.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[n] {
			if !reach[c] {
				reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	for i, leaf := range a.TermNodes {
		if !reach[leaf] {
			t.Errorf("term %d node %d not reachable from root", i, leaf)
		}
	}
	if len(reach) != len(a.Edges)+1 {
		t.Errorf("tree has %d reachable nodes but %d edges: disconnected or cyclic", len(reach), len(a.Edges))
	}
	var wsum float64
	for _, e := range a.Edges {
		wsum += e.W
	}
	if math.Abs(wsum-a.Weight) > 1e-9 {
		t.Errorf("weight = %v, edges sum to %v", a.Weight, wsum)
	}
	if a.Score < 0 || a.Score > 1+1e-9 {
		t.Errorf("score %v out of [0,1]", a.Score)
	}
}

func TestNoDuplicateAnswersModuloDirection(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, DefaultOptions()) // no exclusions
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, a := range answers {
		sig := a.Signature()
		if seen[sig] {
			t.Errorf("duplicate answer signature %q", sig)
		}
		seen[sig] = true
	}
}

func TestExcludedRootTables(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		tbl := f.g.TableNameOf(a.Root)
		if tbl == "Writes" || tbl == "Cites" {
			t.Errorf("answer rooted at excluded table %s", tbl)
		}
	}
}

func TestUnmatchedTermBehaviour(t *testing.T) {
	f := newBibFixture(t)
	// RequireAllTerms (default): no answers.
	answers, _, err := searchTerms(f.s, []string{"soumen", "xyzzy"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 0 {
		t.Errorf("expected no answers, got %d", len(answers))
	}
	// Relaxed: the unmatched term is dropped.
	o := defaultBibOptions()
	o.RequireAllTerms = false
	answers, stats, err := searchTerms(f.s, []string{"soumen", "xyzzy"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Error("relaxed search should return soumen answers")
	}
	if stats.TermsDropped != 1 {
		t.Errorf("TermsDropped = %d", stats.TermsDropped)
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	f := newBibFixture(t)
	if _, _, err := searchTerms(f.s, nil, nil); err == nil {
		t.Error("nil terms should error")
	}
	if _, _, err := searchTerms(f.s, []string{"  ", ""}, nil); err == nil {
		t.Error("blank terms should error")
	}
}

func TestMetadataQuery(t *testing.T) {
	f := newBibFixture(t)
	// "author" matches the Author relation metadata: every author tuple is
	// relevant (§2.3 example).
	answers, stats, err := searchTerms(f.s, []string{"author"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MatchedNodes) != 1 || stats.MatchedNodes[0] != 5 {
		t.Errorf("matched = %v, want [5]", stats.MatchedNodes)
	}
	if len(answers) != 5 {
		t.Errorf("answers = %d, want 5", len(answers))
	}
	for _, a := range answers {
		if f.g.TableNameOf(a.Root) != "Author" {
			t.Errorf("metadata answer in table %s", f.g.TableNameOf(a.Root))
		}
	}
}

func TestMetadataCombinedWithData(t *testing.T) {
	f := newBibFixture(t)
	// "paper surprising": metadata term + title word; connection trees
	// should link a paper tuple to papers titled "surprising". The minimal
	// answer is the matching paper itself (root = leaf for both terms).
	answers, _, err := searchTerms(f.s, []string{"paper", "surprising"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	top := answers[0]
	if len(top.Edges) != 0 {
		t.Errorf("top answer should be a single paper node matching both terms:\n%s", top.Describe(f.g))
	}
	if f.g.TableNameOf(top.Root) != "Paper" {
		t.Errorf("top root table = %s", f.g.TableNameOf(top.Root))
	}
}

func TestTopKLimit(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.TopK = 1
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Errorf("answers = %d, want 1", len(answers))
	}
}

func TestHeapSizeOneStillWorks(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.HeapSize = 1
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Error("heap size 1 should still produce answers")
	}
}

func TestLargerHeapSortsBetter(t *testing.T) {
	f := newBibFixture(t)
	// With a large heap, emitted order must be non-increasing in score
	// when all results pass through the heap.
	o := defaultBibOptions()
	o.HeapSize = 1000
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Score > answers[i-1].Score+1e-12 {
			t.Errorf("answers out of order at %d: %v then %v", i, answers[i-1].Score, answers[i].Score)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	f := newBibFixture(t)
	_, stats, err := searchTerms(f.s, []string{"soumen", "sunita"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pops == 0 || stats.Generated == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if len(stats.Terms) != 2 || len(stats.MatchedNodes) != 2 {
		t.Errorf("terms stats = %+v", stats)
	}
}

func TestTermMatchingMultipleNodesCrossProduct(t *testing.T) {
	f := newBibFixture(t)
	// "aries" matches two papers; "mohan" two authors. All combinations
	// should be considered; C. Mohan wrote both ARIES papers.
	o := defaultBibOptions()
	o.HeapSize = 100
	answers, _, err := searchTerms(f.s, []string{"aries", "mohan"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 2 {
		t.Fatalf("answers = %d, want >= 2", len(answers))
	}
	// Both top answers should link C. Mohan to an ARIES paper directly
	// through a Writes tuple (root = writes excluded, so root is the
	// paper: paper -> writes -> author is 1 child — wait, that is a chain).
	// The chain tree paper->writes->author has a single-child root and is
	// pruned; the valid root is the Writes tuple, which is excluded. The
	// answer that survives is rooted at the author or paper with >= 2
	// children, or the single node matching both terms if any. So we just
	// assert validity here.
	for _, a := range answers {
		assertConnectionTree(t, f.g, a)
	}
}

func TestSignatureStableUnderRootChange(t *testing.T) {
	a1 := &Answer{Root: 5, Edges: []TreeEdge{{From: 5, To: 3, W: 1}, {From: 5, To: 7, W: 1}}}
	a2 := &Answer{Root: 3, Edges: []TreeEdge{{From: 3, To: 5, W: 1}, {From: 5, To: 7, W: 1}}}
	if a1.Signature() != a2.Signature() {
		t.Errorf("signatures differ: %q vs %q", a1.Signature(), a2.Signature())
	}
	a3 := &Answer{Root: 3, Edges: []TreeEdge{{From: 3, To: 5, W: 1}}}
	if a1.Signature() == a3.Signature() {
		t.Error("different trees share a signature")
	}
	single := &Answer{Root: 9}
	single2 := &Answer{Root: 10}
	if single.Signature() == single2.Signature() {
		t.Error("single-node signatures should differ")
	}
}

func TestScoreMonotonicInTreeWeight(t *testing.T) {
	f := newBibFixture(t)
	// With λ=0 (pure proximity) a heavier tree never outranks a lighter
	// one under linear edge scaling.
	o := defaultBibOptions()
	o.HeapSize = 200
	o.Score = ScoreOptions{Lambda: 0, EdgeLog: false}
	answers, _, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Weight < answers[i-1].Weight-1e-9 {
			t.Errorf("pure-proximity order violated: w[%d]=%v < w[%d]=%v",
				i, answers[i].Weight, i-1, answers[i-1].Weight)
		}
	}
}

// newClinicFixture builds a doctor and a patient joined by one visit:
// Paracelsus (A1) saw Anna (P1) for gout (V12), and Hildegard (A2) saw
// her for a fever (V13). Each visit references both.
func newClinicFixture(t *testing.T) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	for _, s := range []*sqldb.TableSchema{
		{
			Name:       "Arzt",
			Columns:    []sqldb.Column{{Name: "ArztId", Type: sqldb.TypeText, NotNull: true}, {Name: "Name", Type: sqldb.TypeText}},
			PrimaryKey: []string{"ArztId"},
		},
		{
			Name:       "Patient",
			Columns:    []sqldb.Column{{Name: "PatId", Type: sqldb.TypeText, NotNull: true}, {Name: "Name", Type: sqldb.TypeText}},
			PrimaryKey: []string{"PatId"},
		},
		{
			Name: "Visit",
			Columns: []sqldb.Column{
				{Name: "VisitId", Type: sqldb.TypeText, NotNull: true},
				{Name: "ArztId", Type: sqldb.TypeText},
				{Name: "PatId", Type: sqldb.TypeText},
				{Name: "Note", Type: sqldb.TypeText},
			},
			PrimaryKey: []string{"VisitId"},
			ForeignKeys: []sqldb.ForeignKey{
				{Column: "ArztId", RefTable: "Arzt"},
				{Column: "PatId", RefTable: "Patient"},
			},
		},
	} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		table string
		row   []string
	}{
		{"Arzt", []string{"A1", "Paracelsus"}},
		{"Arzt", []string{"A2", "Hildegard"}},
		{"Patient", []string{"P1", "Anna"}},
		{"Visit", []string{"V12", "A1", "P1", "gout"}},
		{"Visit", []string{"V13", "A2", "P1", "fever"}},
	} {
		vals := make([]sqldb.Value, len(r.row))
		for i, s := range r.row {
			vals[i] = sqldb.Text(s)
		}
		if _, err := db.Insert(r.table, vals); err != nil {
			t.Fatal(err)
		}
	}
	return newFixture(t, db)
}

// Two matching tuples one edge apart are an answer. The §3 rule drops a
// tree whose root has one child because the tree without the root is
// generated too; for a one-edge tree between two matches it is not, so
// the rule spares it.
func TestAdjacentMatchesAreAnAnswer(t *testing.T) {
	f := newClinicFixture(t)
	answers, stats, err := searchTerms(f.s, []string{"paracelsus", "gout"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("paracelsus gout: %d answers, want 1 (stats %+v)", len(answers), stats)
	}
	a := answers[0]
	doctor, visit := f.node(t, "Arzt", "A1"), f.node(t, "Visit", "V12")
	if len(a.Edges) != 1 || !a.ContainsNode(doctor) || !a.ContainsNode(visit) {
		t.Fatalf("answer is not the visit-doctor edge:\n%s", a.Describe(f.g))
	}
	if a.TermNodes[0] != doctor || a.TermNodes[1] != visit {
		t.Errorf("term nodes %v, want [%d %d]", a.TermNodes, doctor, visit)
	}
}

// The exemption covers one-edge trees only. With a third term the
// adjacent pair hangs off a larger tree: rooted at the doctor or the
// patient it has a single-child root and is dropped, and the one answer
// is the orientation rooted at the visit, which has two children.
func TestAdjacentPairInLargerTree(t *testing.T) {
	f := newClinicFixture(t)
	answers, stats, err := searchTerms(f.s, []string{"paracelsus", "gout", "anna"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("paracelsus gout anna: %d answers, want 1", len(answers))
	}
	a := answers[0]
	if a.Root != f.node(t, "Visit", "V12") || len(a.Edges) != 2 || a.Edges[0].From != a.Root || a.Edges[1].From != a.Root {
		t.Fatalf("want the two-edge tree rooted at visit V12:\n%s", a.Describe(f.g))
	}
	if stats.SingleChildRoots == 0 {
		t.Error("no single-child root was dropped; the doctor- and patient-rooted orientations should be")
	}
}
