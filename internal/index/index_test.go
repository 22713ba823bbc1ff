package index

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Jim Gray", []string{"jim", "gray"}},
		{"Transaction Processing: Concepts", []string{"transaction", "processing", "concepts"}},
		{"soumen-sunita_byron", []string{"soumen", "sunita", "byron"}},
		{"VLDB 1998", []string{"vldb", "1998"}},
		{"", nil},
		{"  --  ", nil},
		{"Ünïcode wörds", []string{"ünïcode", "wörds"}},
		{"a", []string{"a"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newIndexedDB(t *testing.T) (*sqldb.Database, *graph.Graph, *Index) {
	t.Helper()
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name: "Author",
		Columns: []sqldb.Column{
			{Name: "AuthorId", Type: sqldb.TypeText, NotNull: true},
			{Name: "AuthorName", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"AuthorId"},
	})
	db.CreateTable(&sqldb.TableSchema{
		Name: "Paper",
		Columns: []sqldb.Column{
			{Name: "PaperId", Type: sqldb.TypeText, NotNull: true},
			{Name: "Title", Type: sqldb.TypeText},
			{Name: "Year", Type: sqldb.TypeInt},
		},
		PrimaryKey: []string{"PaperId"},
	})
	db.Insert("Author", []sqldb.Value{sqldb.Text("gray"), sqldb.Text("Jim Gray")})
	db.Insert("Author", []sqldb.Value{sqldb.Text("mohan"), sqldb.Text("C. Mohan")})
	db.Insert("Paper", []sqldb.Value{sqldb.Text("tp"), sqldb.Text("Transaction Processing"), sqldb.Int(1993)})
	db.Insert("Paper", []sqldb.Value{sqldb.Text("aries"), sqldb.Text("ARIES Transaction Recovery"), sqldb.Int(1992)})
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return db, g, ix
}

func TestLookupDataTokens(t *testing.T) {
	_, g, ix := newIndexedDB(t)
	m := ix.Lookup("transaction")
	if len(m.Nodes) != 2 {
		t.Fatalf("transaction matches = %v", m.Nodes)
	}
	for _, n := range m.Nodes {
		if g.TableNameOf(n) != "Paper" {
			t.Errorf("match in table %s", g.TableNameOf(n))
		}
	}
	m = ix.Lookup("Gray") // case-insensitive
	if len(m.Nodes) != 1 {
		t.Fatalf("gray matches = %v", m.Nodes)
	}
	if m2 := ix.Lookup("GRAY "); !reflect.DeepEqual(m.Nodes, m2.Nodes) {
		t.Error("lookup should trim and fold case")
	}
}

func TestLookupMetadata(t *testing.T) {
	_, g, ix := newIndexedDB(t)
	m := ix.Lookup("author")
	if len(m.Tables) != 1 || m.Tables[0] != g.TableID("Author") {
		t.Errorf("metadata match = %+v", m)
	}
	// Column name metadata: "title" names a Paper column.
	m = ix.Lookup("title")
	if len(m.Tables) != 1 || m.Tables[0] != g.TableID("Paper") {
		t.Errorf("column metadata match = %+v", m)
	}
	// "authorid" tokenizes to one token, matching the Author table.
	m = ix.Lookup("authorid")
	if len(m.Tables) != 1 {
		t.Errorf("authorid metadata = %+v", m)
	}
}

func TestLookupMiss(t *testing.T) {
	_, _, ix := newIndexedDB(t)
	if m := ix.Lookup("zebra"); !m.Empty() {
		t.Errorf("zebra should be empty, got %+v", m)
	}
}

func TestPostingsSortedUnique(t *testing.T) {
	_, _, ix := newIndexedDB(t)
	m := ix.Lookup("transaction")
	for i := 1; i < len(m.Nodes); i++ {
		if m.Nodes[i] <= m.Nodes[i-1] {
			t.Fatalf("postings not sorted/unique: %v", m.Nodes)
		}
	}
}

func TestDuplicateTokenInRowIndexedOnce(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:    "t",
		Columns: []sqldb.Column{{Name: "a", Type: sqldb.TypeText}, {Name: "b", Type: sqldb.TypeText}},
	})
	db.Insert("t", []sqldb.Value{sqldb.Text("echo echo"), sqldb.Text("echo")})
	g, _ := graph.Build(db, nil)
	ix, err := Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	if m := ix.Lookup("echo"); len(m.Nodes) != 1 {
		t.Errorf("echo matches = %v, want 1 node", m.Nodes)
	}
}

func TestLookupPrefix(t *testing.T) {
	_, _, ix := newIndexedDB(t)
	ns := ix.LookupPrefix("trans")
	if len(ns) != 2 {
		t.Errorf("prefix matches = %v", ns)
	}
	if got := ix.LookupPrefix(""); got != nil {
		t.Errorf("empty prefix should match nothing, got %v", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	_, _, ix := newIndexedDB(t)
	back := reopenLazy(t, ix)
	if back.NumTerms() != ix.NumTerms() || back.NumPostings() != ix.NumPostings() || back.NumNodes() != ix.NumNodes() {
		t.Errorf("round trip stats: %d/%d/%d vs %d/%d/%d",
			back.NumTerms(), back.NumPostings(), back.NumNodes(),
			ix.NumTerms(), ix.NumPostings(), ix.NumNodes())
	}
	for _, term := range []string{"transaction", "gray", "mohan", "aries"} {
		a, b := ix.Lookup(term), back.Lookup(term)
		if !reflect.DeepEqual(a.Nodes, b.Nodes) {
			t.Errorf("term %q: %v vs %v", term, a.Nodes, b.Nodes)
		}
	}
	a, b := ix.Lookup("author"), back.Lookup("author")
	if !reflect.DeepEqual(a.Tables, b.Tables) {
		t.Errorf("metadata round trip: %v vs %v", a.Tables, b.Tables)
	}
	if got, want := contents(t, back), contents(t, ix); got != want {
		t.Errorf("round trip changed the index:\n got %s\nwant %s", got, want)
	}
}

func TestIndexSkipsDeletedRows(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:    "t",
		Columns: []sqldb.Column{{Name: "a", Type: sqldb.TypeText}},
	})
	db.Insert("t", []sqldb.Value{sqldb.Text("keepme")})
	rid, _ := db.Insert("t", []sqldb.Value{sqldb.Text("dropme")})
	db.Delete("t", rid)
	g, _ := graph.Build(db, nil)
	ix, err := Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	if m := ix.Lookup("dropme"); !m.Empty() {
		t.Errorf("deleted row still indexed: %+v", m)
	}
	if m := ix.Lookup("keepme"); len(m.Nodes) != 1 {
		t.Errorf("live row not indexed: %+v", m)
	}
}

// TestTokenTableCollisions: tokens whose hashes collide, in full or in
// their slot bits, keep distinct ids through probing and every grow, and
// a token seen again gets its first id back.
func TestTokenTableCollisions(t *testing.T) {
	var tt tokenTable
	const n = 3000 // several grows past the first 1 024 slots
	for i := 0; i < n; i++ {
		tok := []byte(fmt.Sprint("t", i))
		h := uint64(i%3) << 40 // three full hashes; all share slot bits
		if id := tt.intern(tok, h); id != int32(i) {
			t.Fatalf("token %s: id %d, want %d", tok, id, i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		tok := fmt.Sprint("t", i)
		if id := tt.intern([]byte(tok), uint64(i%3)<<40); id != int32(i) || string(tt.tok(id)) != tok {
			t.Fatalf("token %s seen again: id %d (%q), want %d", tok, id, tt.tok(id), i)
		}
	}
	if tt.len() != n {
		t.Fatalf("len %d, want %d", tt.len(), n)
	}
}
