package banks

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/datagen"
)

func TestQueryStatsAndAnswers(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:    "sunita soumen",
		Options: &SearchOptions{ExcludedRootTables: []string{"writes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if res.Answers[0].Root.Table != "paper" {
		t.Errorf("top root = %s, want paper", res.Answers[0].Root.Table)
	}
	st := res.Stats
	if len(st.Terms) != 2 || st.Pops == 0 || st.Generated == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.MatchedNodes) != 2 {
		t.Errorf("matched nodes = %v", st.MatchedNodes)
	}
	if res.Groups != nil {
		t.Error("groups populated without GroupByShape")
	}
}

// TestAdjacentMatchesThroughSystem: two directly linked tuples that each
// match a term are an answer — one edge, both ends matched — through the
// public API, on a visit row that references its doctor.
func TestAdjacentMatchesThroughSystem(t *testing.T) {
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE arzt (id INT PRIMARY KEY, name TEXT);
		CREATE TABLE visit (id INT PRIMARY KEY, arzt INT REFERENCES arzt, note TEXT);
		INSERT INTO arzt VALUES (1, 'Paracelsus');
		INSERT INTO visit VALUES (12, 1, 'gout');
	`); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	answers := searchAnswers(t, sys, "paracelsus gout", nil)
	if len(answers) != 1 {
		t.Fatalf("paracelsus gout: %d answers, want 1:\n%s", len(answers), renderAnswers(answers))
	}
	root := answers[0].Tree
	if len(root.Children) != 1 || len(root.Children[0].Children) != 0 || !root.Matched || !root.Children[0].Matched {
		t.Fatalf("want one edge between two matched tuples:\n%s", renderAnswers(answers))
	}
	if tables := root.Tuple.Table + "," + root.Children[0].Tuple.Table; tables != "arzt,visit" && tables != "visit,arzt" {
		t.Errorf("answer joins %s, want arzt and visit", tables)
	}
}

func TestQueryGroupByShape(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:         "sunita soumen",
		GroupByShape: true,
		Options:      &SearchOptions{ExcludedRootTables: []string{"writes"}, HeapSize: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	total := 0
	for _, g := range res.Groups {
		if g.Shape == "" {
			t.Error("empty shape")
		}
		for _, a := range g.Answers {
			if a == nil {
				t.Fatal("group references unconverted answer")
			}
		}
		total += len(g.Answers)
	}
	if total != len(res.Answers) {
		t.Errorf("grouped %d of %d answers", total, len(res.Answers))
	}
}

func TestQueryQualifiedAndPrefix(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:      "author:sunita sarawag",
		Qualified: true,
		Prefix:    true,
		Options:   &SearchOptions{ExcludedRootTables: []string{"writes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("qualified+prefix query found nothing")
	}
}

// TestQueryRespectsTopK pins the trimming contract: with a tiny output
// heap the emitter can overshoot TopK by an answer or two during a single
// node visit, but Results.Answers must be the trimmed, sequentially
// ranked list.
func TestQueryRespectsTopK(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	for _, topK := range []int{1, 2, 3} {
		res, err := sys.Query(context.Background(), Query{
			Text:    "sunita soumen",
			Options: &SearchOptions{TopK: topK, HeapSize: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) > topK {
			t.Errorf("TopK=%d returned %d answers", topK, len(res.Answers))
		}
		for i, a := range res.Answers {
			if a.Rank != i+1 {
				t.Errorf("TopK=%d answer %d has rank %d", topK, i, a.Rank)
			}
		}
	}
}

func TestQueryEmptyText(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	if _, err := sys.Query(context.Background(), Query{Text: " ,, "}); err == nil {
		t.Error("empty query should error")
	}
}

func TestQueryStreamPartialResults(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	q := Query{Text: "sunita soumen", Options: &SearchOptions{ExcludedRootTables: []string{"writes"}}}
	res, err := sys.QueryStream(context.Background(), q, func(*Answer) bool { return false })
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if res == nil || len(res.Answers) != 1 {
		t.Fatalf("partial results = %+v, want the one delivered answer", res)
	}
	if _, err := sys.QueryStream(context.Background(), q, nil); err == nil {
		t.Error("nil callback should error")
	}
}

func TestQueryContextCanceled(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.Query(ctx, Query{Text: "sunita soumen"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryDeadlineAbortsLongQuery asserts that a deadline stops a heavy
// multi-term TPC-D query long before it would complete. The three
// metadata terms each expand to MetadataNodeLimit origins, so the
// uncancelled search runs to MaxPops (default 2,000,000 iterator pops —
// on the order of seconds); the 25ms deadline must cut it off within the
// cancellation-check interval of a few hundred pops.
func TestQueryDeadlineAbortsLongQuery(t *testing.T) {
	inner, err := datagen.BuildTPCD(datagen.TPCDConfig{
		Parts: 2000, Suppliers: 500, Customers: 1000, Orders: 8000, LinesPer: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(inner), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sys.Query(ctx, Query{
		Text:    "part orders lineitem",
		Options: &SearchOptions{TopK: 1 << 20, HeapSize: 1 << 10},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (after %v), want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; want well under the uncancelled runtime", elapsed)
	}
}

// TestCompactDuringQueriesAndHandler is the concurrency contract of the
// atomically swapped engine: queries (direct and via the HTTP handler)
// run non-stop while the database grows and Compact repeatedly rebuilds
// and swaps new snapshots in. Under -race this fails loudly if any in-flight search
// could observe a torn graph/index/searcher triple.
func TestCompactDuringQueriesAndHandler(t *testing.T) {
	db, sys := newQuickstartSystem(t)
	ts := httptest.NewServer(sys.ServeHandler(&ServeOptions{Search: &SearchOptions{ExcludedRootTables: []string{"writes"}}}))
	defer ts.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan error, 16)

	// Direct Query + QueryStream workers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := &SearchOptions{ExcludedRootTables: []string{"writes"}}
			for !done.Load() {
				res, err := sys.Query(context.Background(), Query{Text: "sunita soumen", Options: opts})
				if err != nil {
					fail <- err
					return
				}
				if len(res.Answers) == 0 {
					fail <- errors.New("query lost its answers mid-compaction")
					return
				}
				if _, err := sys.QueryStream(context.Background(),
					Query{Text: "mining", Options: opts},
					func(*Answer) bool { return true }); err != nil {
					fail <- err
					return
				}
			}
		}()
	}
	// Handler worker: every request pins one snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			resp, err := ts.Client().Get(ts.URL + "/search?q=sunita+soumen")
			if err != nil {
				fail <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 || !strings.Contains(string(body), "Mining Surprising Patterns") {
				fail <- errors.New("handler response torn during compaction")
				return
			}
		}
	}()

	// Main thread: grow the database and swap snapshots as fast as it can.
	for i := 0; i < 60; i++ {
		db.MustExec("INSERT INTO author VALUES (?, ?)", "x"+string(rune('a'+i%26))+string(rune('0'+i/26)), "Extra Person")
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}

	// The final snapshot sees everything inserted above.
	res, err := sys.Query(context.Background(), Query{Text: "extra"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("compacted engine does not see inserted rows")
	}
}
