package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestQueryCanceledContext asserts a context canceled before the call
// returns context.Canceled without producing answers.
func TestQueryCanceledContext(t *testing.T) {
	f := newBibFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, _, err := f.s.Query(ctx, Request{Terms: []string{"soumen", "sunita"}}, defaultBibOptions(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if answers != nil {
		t.Errorf("answers = %v, want nil", answers)
	}
}

// TestQueryCanceledSingleTerm covers the single-term path's check.
func TestQueryCanceledSingleTerm(t *testing.T) {
	f := newBibFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.s.Query(ctx, Request{Terms: []string{"mohan"}}, defaultBibOptions(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryExpiredDeadline asserts an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestQueryExpiredDeadline(t *testing.T) {
	f := newBibFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := f.s.Query(ctx, Request{Terms: []string{"soumen", "sunita"}}, defaultBibOptions(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryUnifiedWrappers asserts a plain request reports its stats and
// that qualifying every term with the relation it matches in leaves the
// answers unchanged.
func TestQueryUnifiedWrappers(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	unified, st, err := f.s.Query(context.Background(), Request{Terms: []string{"soumen", "sunita"}}, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Pops == 0 || len(st.Terms) != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Every "soumen" and "sunita" match is an Author tuple, so qualifying
	// both terms with their relation leaves the answers unchanged.
	qual, _, err := f.s.Query(context.Background(),
		Request{Terms: []string{"author:soumen", "author:sunita"}, Qualified: true, DB: f.db}, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qual) != len(unified) {
		t.Fatalf("qualified counts differ: %d vs %d", len(qual), len(unified))
	}
}
