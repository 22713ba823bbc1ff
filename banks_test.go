package banks

import (
	"context"
	"strings"
	"testing"
	"unicode/utf8"
)

// searchAnswers is the test shorthand for the one-line keyword query the
// dropped System.Search wrapper used to provide.
func searchAnswers(t *testing.T, sys *System, text string, opts *SearchOptions) []*Answer {
	t.Helper()
	res, err := sys.Query(context.Background(), Query{Text: text, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return res.Answers
}

// renderAnswers flattens a result list into a comparison-stable string.
func renderAnswers(answers []*Answer) string {
	var b strings.Builder
	for _, a := range answers {
		b.WriteString(a.Format())
		b.WriteString("\n")
	}
	return b.String()
}

// newQuickstartSystem builds the small bibliographic database from the
// package doc through the public API only.
func newQuickstartSystem(t *testing.T) (*Database, *System) {
	t.Helper()
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT);
		CREATE TABLE paper (id TEXT PRIMARY KEY, title TEXT);
		CREATE TABLE writes (aid TEXT REFERENCES author, pid TEXT REFERENCES paper);
		INSERT INTO author VALUES ('a1', 'Soumen Chakrabarti'),
			('a2', 'Sunita Sarawagi'), ('a3', 'Byron Dom');
		INSERT INTO paper VALUES ('p1', 'Mining Surprising Patterns');
		INSERT INTO writes VALUES ('a1', 'p1'), ('a2', 'p1'), ('a3', 'p1');
	`); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, sys
}

func TestExecAndQuery(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	r := db.MustExec("INSERT INTO t VALUES (?, ?)", 1, "x")
	if r.RowsAffected != 1 {
		t.Errorf("RowsAffected = %d", r.RowsAffected)
	}
	q := db.MustExec("SELECT a, b FROM t")
	if len(q.Rows) != 1 || q.Rows[0][0] != int64(1) || q.Rows[0][1] != "x" {
		t.Errorf("rows = %v", q.Rows)
	}
	if len(db.Tables()) != 1 {
		t.Errorf("tables = %v", db.Tables())
	}
}

func TestExecBadArgType(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INT)")
	if _, err := db.Exec("INSERT INTO t VALUES (?)", struct{}{}); err == nil {
		t.Error("struct arg should fail")
	}
}

func TestSearchQuickstart(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	answers := searchAnswers(t, sys, "sunita soumen", &SearchOptions{ExcludedRootTables: []string{"writes"}})
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	top := answers[0]
	if top.Root.Table != "paper" {
		t.Errorf("top root = %s, want paper", top.Root.Table)
	}
	if top.Rank != 1 || top.Score <= 0 || top.Score > 1 {
		t.Errorf("rank/score = %d/%v", top.Rank, top.Score)
	}
	s := top.Format()
	if !strings.Contains(s, "paper(") || !strings.Contains(s, "Sarawagi") {
		t.Errorf("Format() = %q", s)
	}
	// Both matched authors flagged.
	var matchedCount int
	var walk func(*TreeNode)
	walk = func(n *TreeNode) {
		if n.Matched {
			matchedCount++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(top.Tree)
	if matchedCount != 2 {
		t.Errorf("matched nodes = %d, want 2", matchedCount)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	if _, err := sys.Query(context.Background(), Query{Text: "  ,,  "}); err == nil {
		t.Error("empty query should error")
	}
}

func TestSearchOptionMapping(t *testing.T) {
	o := &SearchOptions{
		TopK: 3, HeapSize: 7, Lambda: 0.5, NodeLog: true,
		Multiplicative: true, AllowPartialMatch: true,
	}
	c := o.toCore()
	if c.TopK != 3 || c.HeapSize != 7 || c.Score.Lambda != 0.5 {
		t.Errorf("core opts = %+v", c)
	}
	if !c.Score.EdgeLog || !c.Score.NodeLog {
		t.Errorf("log flags = %+v", c.Score)
	}
	if c.RequireAllTerms {
		t.Error("AllowPartialMatch not mapped")
	}
	z := (&SearchOptions{UseZeroLambda: true}).toCore()
	if z.Score.Lambda != 0 {
		t.Errorf("UseZeroLambda gave λ=%v", z.Score.Lambda)
	}
	d := (*SearchOptions)(nil).toCore()
	if d.Score.Lambda != 0.2 || !d.Score.EdgeLog {
		t.Errorf("default opts = %+v", d.Score)
	}
}

func TestRefreshSeesNewData(t *testing.T) {
	db, sys := newQuickstartSystem(t)
	answers := searchAnswers(t, sys, "newperson", nil)
	if len(answers) != 0 {
		t.Fatal("unexpected match before insert")
	}
	db.MustExec("INSERT INTO author VALUES ('np', 'Newperson Moon')")
	// Stale system: still no match.
	answers = searchAnswers(t, sys, "newperson", nil)
	if len(answers) != 0 {
		t.Error("stale system should not see new data")
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	answers = searchAnswers(t, sys, "newperson", nil)
	if len(answers) != 1 {
		t.Errorf("after refresh answers = %d", len(answers))
	}
}

func TestGraphAndIndexStats(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	gs := sys.GraphStats()
	if gs.Nodes != 7 || gs.Tables != 3 {
		t.Errorf("graph stats = %+v", gs)
	}
	if gs.Arcs != 12 { // 6 FK links, forward + backward
		t.Errorf("arcs = %d", gs.Arcs)
	}
	if gs.Bytes <= 0 {
		t.Error("bytes should be positive")
	}
	is := sys.IndexStats()
	if is.Terms == 0 || is.Postings == 0 {
		t.Errorf("index stats = %+v", is)
	}
}

func TestLookup(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	n, meta := sys.Lookup("sunita")
	if n != 1 || len(meta) != 0 {
		t.Errorf("lookup sunita = %d, %v", n, meta)
	}
	n, meta = sys.Lookup("author")
	if n != 0 || len(meta) != 1 || meta[0] != "author" {
		t.Errorf("lookup author = %d, %v", n, meta)
	}
}

func TestTupleByPK(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	tu, ok := sys.TupleByPK("author", "a2")
	if !ok {
		t.Fatal("lookup failed")
	}
	if tu.Table != "author" || tu.Values[1] != "Sunita Sarawagi" {
		t.Errorf("tuple = %+v", tu)
	}
	if _, ok := sys.TupleByPK("author", "nope"); ok {
		t.Error("missing pk should fail")
	}
	if _, ok := sys.TupleByPK("nosuch", "x"); ok {
		t.Error("missing table should fail")
	}
}

func TestTupleLabelTruncation(t *testing.T) {
	tu := Tuple{
		Table:   "t",
		Columns: []string{"a"},
		Values:  Row{strings.Repeat("x", 100)},
	}
	l := tu.Label()
	if len(l) > 70 {
		t.Errorf("label too long: %d chars", len(l))
	}
	nullT := Tuple{Table: "t", Columns: []string{"a"}, Values: Row{nil}}
	if !strings.Contains(nullT.Label(), "NULL") {
		t.Errorf("label = %q", nullT.Label())
	}
}

func TestTupleLabelTruncationUTF8(t *testing.T) {
	// 60 three-byte runes (180 bytes) force truncation at the 40-byte
	// budget; the cut must land on a rune boundary, never mid-sequence.
	long := strings.Repeat("日本語データ", 12)
	tu := Tuple{Table: "t", Columns: []string{"a"}, Values: Row{long}}
	l := tu.Label()
	if !utf8.ValidString(l) {
		t.Errorf("label is not valid UTF-8: %q", l)
	}
	if !strings.Contains(l, "…") {
		t.Errorf("label not truncated: %q", l)
	}
	// Direct boundary cases: cuts landing inside a multi-byte rune.
	for n := 2; n < 12; n++ {
		got := truncate("aé日本", n)
		if !utf8.ValidString(got) {
			t.Errorf("truncate(%q, %d) = %q: invalid UTF-8", "aé日本", n, got)
		}
	}
	// ASCII behaviour unchanged.
	if got := truncate("abcdef", 4); got != "abc…" {
		t.Errorf("truncate ascii = %q", got)
	}
	if got := truncate("ab", 4); got != "ab" {
		t.Errorf("short string altered: %q", got)
	}
}

func TestSingleTermPublicSearch(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	// "mining" matches the paper's title and the writes tuples' textual
	// FK values (every textual attribute is indexed, per the paper);
	// excluding the link table leaves just the paper.
	answers := searchAnswers(t, sys, "mining", &SearchOptions{ExcludedRootTables: []string{"writes"}})
	if len(answers) != 1 || answers[0].Root.Table != "paper" {
		t.Errorf("answers = %v", answers)
	}
	if answers[0].Tree.Children != nil {
		t.Error("single-term answer should be a lone node")
	}
}
