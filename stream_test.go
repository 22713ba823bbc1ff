package banks

import (
	"context"
	"errors"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
)

func TestQueryStreamDelivery(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	q := Query{Text: "sunita soumen", Options: &SearchOptions{ExcludedRootTables: []string{"writes"}}}
	var seen []*Answer
	res, err := sys.QueryStream(context.Background(), q, func(a *Answer) bool {
		seen = append(seen, a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no streamed answers")
	}
	if seen[0].Root.Table != "paper" {
		t.Errorf("first streamed root = %s", seen[0].Root.Table)
	}
	if len(res.Answers) != len(seen) {
		t.Errorf("results carry %d answers, stream delivered %d", len(res.Answers), len(seen))
	}

	// Early cancel.
	count := 0
	_, err = sys.QueryStream(context.Background(), q, func(*Answer) bool {
		count++
		return false
	})
	if !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v", err)
	}
	if count != 1 {
		t.Errorf("count = %d", count)
	}

	if _, err := sys.QueryStream(context.Background(), Query{Text: " "},
		func(*Answer) bool { return true }); err == nil {
		t.Error("empty query should error")
	}
}

func TestQueryIterRangesOverAnswers(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	q := Query{Text: "sunita soumen", Options: &SearchOptions{ExcludedRootTables: []string{"writes"}}}
	var ranks []int
	for a, err := range sys.QueryIter(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, a.Rank)
	}
	if len(ranks) == 0 {
		t.Fatal("iterator yielded nothing")
	}
	for i, r := range ranks {
		if r != i+1 {
			t.Errorf("yield %d has rank %d", i, r)
		}
	}
}

func TestQueryIterEarlyBreakCancelsSearch(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	// A heap of 1 forces incremental emission so the break really stops a
	// running search rather than draining a finished one.
	q := Query{Text: "sunita soumen", Options: &SearchOptions{HeapSize: 1}}
	count := 0
	for a, err := range sys.QueryIter(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			t.Fatal("nil answer without error")
		}
		count++
		break
	}
	if count != 1 {
		t.Fatalf("loop body ran %d times after break", count)
	}
}

// TestStreamCancelDuringHeapOverflow pins the cancellation contract when
// the callback returns false mid-visit: the rest of the visit's cross
// product keeps generating candidates, and heap overflow must not call
// the callback again (for QueryIter a re-yield after break is a runtime
// panic). The small DBLP catalog with a small heap and large TopK keeps
// the output heap overflowing while answers are still being generated.
func TestStreamCancelDuringHeapOverflow(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(inner), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Text: "data mining", Options: &SearchOptions{HeapSize: 16, TopK: 100}}

	calls := 0
	res, err := sys.QueryStream(context.Background(), q, func(*Answer) bool {
		calls++
		return calls < 2
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if calls != 2 {
		t.Errorf("callback ran %d times after cancelling on the 2nd answer", calls)
	}
	if res == nil || len(res.Answers) != 2 {
		t.Errorf("partial results = %d answers, want exactly the 2 delivered", len(res.Answers))
	}

	// The same shape through QueryIter: break must not be re-yielded
	// (this panicked before the emitter learned to drop post-stop
	// candidates).
	count := 0
	for a, err := range sys.QueryIter(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			t.Fatal("nil answer")
		}
		count++
		if count == 2 {
			break
		}
	}
	if count != 2 {
		t.Errorf("iterator body ran %d times", count)
	}
}

func TestQueryIterDeliversErrors(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	var got error
	for a, err := range sys.QueryIter(context.Background(), Query{Text: "  "}) {
		if a != nil {
			t.Fatal("answer from an empty query")
		}
		got = err
	}
	if got == nil {
		t.Fatal("empty query yielded no error")
	}
	// A canceled context surfaces the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got = nil
	for _, err := range sys.QueryIter(ctx, Query{Text: "sunita"}) {
		got = err
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("canceled query yielded %v, want context.Canceled", got)
	}
}
