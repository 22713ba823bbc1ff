package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// TestSerializationRoundTripRandom builds indexes over randomized corpora
// and checks that the lazy round trip a store-opened index takes
// preserves every posting list exactly.
func TestSerializationRoundTripRandom(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"eta", "theta", "iota", "kappa", "lambda", "mu"}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		db := sqldb.NewDatabase()
		if _, err := db.CreateTable(&sqldb.TableSchema{
			Name:    "doc",
			Columns: []sqldb.Column{{Name: "body", Type: sqldb.TypeText}},
		}); err != nil {
			t.Fatal(err)
		}
		rows := 20 + rng.Intn(50)
		for i := 0; i < rows; i++ {
			var body string
			for w := 0; w < 1+rng.Intn(6); w++ {
				body += words[rng.Intn(len(words))] + " "
			}
			if _, err := db.Insert("doc", []sqldb.Value{sqldb.Text(body)}); err != nil {
				t.Fatal(err)
			}
		}
		g, err := graph.Build(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(db, g)
		if err != nil {
			t.Fatal(err)
		}
		back := reopenLazy(t, ix)
		if got, want := contents(t, back), contents(t, ix); got != want {
			t.Fatalf("trial %d: round trip changed the index", trial)
		}
		for _, w := range words {
			a, b := ix.Lookup(w), back.Lookup(w)
			if !reflect.DeepEqual(a.Nodes, b.Nodes) {
				t.Fatalf("trial %d: term %q mismatch: %v vs %v", trial, w, a.Nodes, b.Nodes)
			}
		}
	}
}

// TestLookupMatchesBruteForce cross-checks the inverted index against a
// direct scan of the data.
func TestLookupMatchesBruteForce(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name: "doc",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "a", Type: sqldb.TypeText},
			{Name: "b", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"id"},
	})
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"red", "green", "blue", "cyan", "magenta"}
	for i := 0; i < 80; i++ {
		a := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		b := vocab[rng.Intn(len(vocab))]
		db.Insert("doc", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Text(a), sqldb.Text(b)})
	}
	g, _ := graph.Build(db, nil)
	ix, err := Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range vocab {
		want := map[graph.NodeID]bool{}
		db.Table("doc").Scan(func(rid sqldb.RID, row []sqldb.Value) bool {
			for _, col := range []int{1, 2} {
				for _, tok := range Tokenize(row[col].S) {
					if tok == term {
						want[g.NodeOf("doc", rid)] = true
					}
				}
			}
			return true
		})
		got := ix.Lookup(term)
		if len(got.Nodes) != len(want) {
			t.Fatalf("term %q: index %d nodes, brute force %d", term, len(got.Nodes), len(want))
		}
		for _, n := range got.Nodes {
			if !want[n] {
				t.Errorf("term %q: spurious node %d", term, n)
			}
		}
	}
}

// TestIndexStatsConsistency sanity-checks the aggregate counters.
func TestIndexStatsConsistency(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:    "doc",
		Columns: []sqldb.Column{{Name: "a", Type: sqldb.TypeText}},
	})
	for i := 0; i < 10; i++ {
		db.Insert("doc", []sqldb.Value{sqldb.Text(fmt.Sprintf("tok%d shared", i))})
	}
	g, _ := graph.Build(db, nil)
	ix, err := Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	// 10 unique tokens + "shared" = 11 terms; postings = 10 + 10.
	if ix.NumTerms() != 11 {
		t.Errorf("terms = %d", ix.NumTerms())
	}
	if ix.NumPostings() != 20 {
		t.Errorf("postings = %d", ix.NumPostings())
	}
	if ix.NumNodes() != 10 {
		t.Errorf("nodes = %d", ix.NumNodes())
	}
}
