package core

import (
	"context"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

func TestSearchStreamMatchesBatchOrder(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	batch, err := f.s.Search([]string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*Answer
	_, _, err = f.s.Query(context.Background(), Request{Terms: []string{"soumen", "sunita"}}, o, func(a *Answer) bool {
		streamed = append(streamed, a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i].Signature() != batch[i].Signature() {
			t.Errorf("position %d differs", i)
		}
		if streamed[i].Rank != i+1 {
			t.Errorf("streamed rank = %d at position %d", streamed[i].Rank, i)
		}
	}
}

func TestSearchStreamEarlyCancel(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	count := 0
	answers, _, err := f.s.Query(context.Background(), Request{Terms: []string{"soumen", "sunita"}}, o, func(a *Answer) bool {
		count++
		return false // cancel after the first answer
	})
	// A callback's cancellation is not a failure: the search stops cleanly
	// with the answers emitted so far.
	if err != nil {
		t.Errorf("err = %v, want a clean stop", err)
	}
	if len(answers) != 1 {
		t.Errorf("stopped search returned %d answers, want the 1 emitted", len(answers))
	}
	if count != 1 {
		t.Errorf("callback ran %d times, want 1", count)
	}
}

func TestSearchStreamSingleTerm(t *testing.T) {
	f := newBibFixture(t)
	var got []*Answer
	_, _, err := f.s.Query(context.Background(), Request{Terms: []string{"mohan"}}, defaultBibOptions(), func(a *Answer) bool {
		got = append(got, a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("streamed %d single-term answers", len(got))
	}
}

// smithFixture builds a deterministic two-author dataset for the
// single-term heap-contract tests: "zed smith" (no papers, prestige 0) is
// inserted before "amy smith" (two papers, prestige 2), so the posting
// order for "smith" is zed, amy while relevance order is amy, zed.
func smithFixture(t *testing.T) *fixture {
	t.Helper()
	db := sqldb.NewDatabase()
	mustCreate := func(s *sqldb.TableSchema) {
		t.Helper()
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(&sqldb.TableSchema{
		Name: "Author",
		Columns: []sqldb.Column{
			{Name: "AuthorId", Type: sqldb.TypeText, NotNull: true},
			{Name: "AuthorName", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"AuthorId"},
	})
	mustCreate(&sqldb.TableSchema{
		Name: "Paper",
		Columns: []sqldb.Column{
			{Name: "PaperId", Type: sqldb.TypeText, NotNull: true},
			{Name: "Title", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"PaperId"},
	})
	mustCreate(&sqldb.TableSchema{
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
	rows := [][]string{{"Zed", "zed smith"}, {"Amy", "amy smith"}}
	for _, r := range rows {
		if _, err := db.Insert("Author", []sqldb.Value{sqldb.Text(r[0]), sqldb.Text(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"P1", "P2"} {
		if _, err := db.Insert("Paper", []sqldb.Value{sqldb.Text(p), sqldb.Text("a title")}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("Writes", []sqldb.Value{sqldb.Text("Amy"), sqldb.Text(p)}); err != nil {
			t.Fatal(err)
		}
	}
	return newFixture(t, db)
}

// TestSearchStreamSingleTermHeapContract pins the single-term emission
// contract to the shared output heap: a heap of 1 emits in generation
// (posting) order, a heap large enough to buffer everything emits in exact
// relevance order — the same behaviour the multi-term path documents.
func TestSearchStreamSingleTermHeapContract(t *testing.T) {
	f := smithFixture(t)
	zed := f.node(t, "Author", "Zed")
	amy := f.node(t, "Author", "Amy")

	stream := func(heapSize int) []graph.NodeID {
		o := DefaultOptions()
		o.HeapSize = heapSize
		var roots []graph.NodeID
		if _, _, err := f.s.Query(context.Background(), Request{Terms: []string{"smith"}}, o, func(a *Answer) bool {
			roots = append(roots, a.Root)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return roots
	}

	// HeapSize 1: the second offer forces the first (and only) buffered
	// answer out, so emission follows posting order — zed before amy even
	// though amy scores higher.
	got := stream(1)
	if len(got) != 2 || got[0] != zed || got[1] != amy {
		t.Errorf("heap=1 emission = %v, want [zed=%d amy=%d]", got, zed, amy)
	}
	// A heap that holds all candidates emits best-first: exact order.
	got = stream(20)
	if len(got) != 2 || got[0] != amy || got[1] != zed {
		t.Errorf("heap=20 emission = %v, want [amy=%d zed=%d]", got, amy, zed)
	}
}

// TestSearchStreamSingleTermMatchesBatch asserts the streaming and batch
// single-term paths share one pipeline: same answers, same order, same
// ranks, for any heap size.
func TestSearchStreamSingleTermMatchesBatch(t *testing.T) {
	f := smithFixture(t)
	for _, heapSize := range []int{1, 2, 20} {
		o := DefaultOptions()
		o.HeapSize = heapSize
		batch, err := f.s.Search([]string{"smith"}, o)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []*Answer
		if _, _, err := f.s.Query(context.Background(), Request{Terms: []string{"smith"}}, o, func(a *Answer) bool {
			streamed = append(streamed, a)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(batch) {
			t.Fatalf("heap=%d: streamed %d, batch %d", heapSize, len(streamed), len(batch))
		}
		for i := range batch {
			if streamed[i].Root != batch[i].Root || streamed[i].Rank != i+1 {
				t.Errorf("heap=%d position %d: stream root %d rank %d, batch root %d",
					heapSize, i, streamed[i].Root, streamed[i].Rank, batch[i].Root)
			}
		}
	}
}

func TestSearchStreamErrors(t *testing.T) {
	f := newBibFixture(t)
	if _, _, err := f.s.Query(context.Background(), Request{}, nil, func(*Answer) bool { return true }); err == nil {
		t.Error("empty query should error")
	}
	// No matches: no callback, no error.
	calls := 0
	if _, _, err := f.s.Query(context.Background(), Request{Terms: []string{"xyzzy"}}, nil, func(*Answer) bool { calls++; return true }); err != nil {
		t.Errorf("no-match stream errored: %v", err)
	}
	if calls != 0 {
		t.Errorf("callback ran %d times for no matches", calls)
	}
}
