package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestBudgetPopsExhaustion: a tiny pops budget truncates the expansion,
// flags the stats, and still returns whatever was emitted, ranked.
func TestBudgetPopsExhaustion(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.Budget.MaxPops = 3
	answers, stats, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BudgetExhausted || stats.BudgetReason != "pops" {
		t.Errorf("exhausted=%v reason=%q, want pops", stats.BudgetExhausted, stats.BudgetReason)
	}
	if stats.Pops > 3 {
		t.Errorf("pops = %d, exceeds budget", stats.Pops)
	}
	for i, a := range answers {
		if a.Rank != i+1 {
			t.Errorf("rank %d at position %d", a.Rank, i)
		}
	}
}

// TestBudgetMaxPopsDefault: Budget.MaxPops is the only pop bound. Left at
// zero, normalization applies the 2,000,000 default; set, it cuts the
// search and reports the truncation through the budget flag.
func TestBudgetMaxPopsDefault(t *testing.T) {
	if got := (&Options{}).withDefaultsInto(new(Options)).Budget.MaxPops; got != 2_000_000 {
		t.Errorf("default pop bound = %d, want 2000000", got)
	}
	if got := DefaultOptions().Budget.MaxPops; got != 2_000_000 {
		t.Errorf("DefaultOptions pop bound = %d, want 2000000", got)
	}
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.Budget.MaxPops = 5
	_, stats, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BudgetExhausted || stats.BudgetReason != "pops" {
		t.Errorf("MaxPops truncation not flagged: %+v", stats)
	}
}

// TestBudgetArcsExhaustion: an arc budget cuts off expansion and reports
// "arcs"; an ample budget leaves the query untouched with the same
// answers.
func TestBudgetArcsExhaustion(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	full, fullStats, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.BudgetExhausted {
		t.Fatalf("unbudgeted query reported exhaustion: %+v", fullStats)
	}
	if fullStats.ArcsScanned == 0 {
		t.Fatal("no arcs accounted on the full run")
	}

	o.Budget.MaxArcsScanned = 1
	_, stats, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BudgetExhausted || stats.BudgetReason != "arcs" {
		t.Errorf("exhausted=%v reason=%q, want arcs", stats.BudgetExhausted, stats.BudgetReason)
	}

	// An ample arc budget must not perturb the answers.
	o.Budget.MaxArcsScanned = fullStats.ArcsScanned * 2
	again, againStats, err := searchTerms(f.s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if againStats.BudgetExhausted {
		t.Errorf("ample budget flagged: %+v", againStats)
	}
	if len(again) != len(full) {
		t.Errorf("answers changed under ample budget: %d vs %d", len(again), len(full))
	}
}

// TestBudgetTruncationDeterministicColdVsWarm: a budget-truncated query
// must cut off at exactly the same point — same pops, same arcs, same
// answers — on a fresh arena and on a recycled one, whose iterators carry
// the previous query's stale slots.
func TestBudgetTruncationDeterministicColdVsWarm(t *testing.T) {
	f := newBibFixture(t)
	sess := NewSearcher(f.g, f.ix).NewSession()
	defer sess.Close()
	o := defaultBibOptions()
	o.Budget.MaxArcsScanned = 6

	run := func() ([]string, int, int) {
		answers, stats, err := sess.Query(context.Background(), Request{Terms: []string{"soumen", "sunita"}}, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.BudgetExhausted {
			t.Fatalf("budget not exhausted: %+v", stats)
		}
		var roots []string
		for _, a := range answers {
			roots = append(roots, fmt.Sprintf("%d:%.4f", a.Root, a.Score))
		}
		return roots, stats.Pops, stats.ArcsScanned
	}

	coldRoots, coldPops, coldArcs := run()
	if len(sess.ar.origins) == 0 {
		t.Fatal("the first run left no iterator for the second to recycle")
	}
	warmRoots, warmPops, warmArcs := run()
	if coldPops != warmPops || coldArcs != warmArcs {
		t.Errorf("cold (pops=%d arcs=%d) != warm (pops=%d arcs=%d)", coldPops, coldArcs, warmPops, warmArcs)
	}
	if !reflect.DeepEqual(coldRoots, warmRoots) {
		t.Errorf("answers diverged:\ncold %v\nwarm %v", coldRoots, warmRoots)
	}
}

// TestBudgetNotSpentOnRetiredIterators: "ahuja" matches only Mohan Ahuja,
// whose component (his one paper) does not hold C. Mohan, the other match
// of "mohan". Once Ahuja's iterator exhausts, C. Mohan's is retired, so a
// pops budget just big enough for the useful work no longer truncates the
// query: it ends unflagged with the unbudgeted answers, where the
// run-to-exhaustion loop spent the same budget sweeping C. Mohan's
// component and was cut off.
func TestBudgetNotSpentOnRetiredIterators(t *testing.T) {
	f := newBibFixture(t)
	ref := NewSearcher(f.g, f.ix)
	ref.noRetire = true
	terms := []string{"ahuja", "mohan"}
	o := defaultBibOptions()
	full, fullStats, err := searchTerms(f.s, terms, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 || fullStats.Retired == 0 {
		t.Fatalf("%d answers, %d retired: want answers and a retirement", len(full), fullStats.Retired)
	}

	o.Budget.MaxPops = fullStats.Pops
	answers, stats, err := searchTerms(f.s, terms, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BudgetExhausted || renderAnswers(answers) != renderAnswers(full) {
		t.Errorf("budget %d: exhausted=%v, answers\n%s\nwant unbudgeted\n%s", o.Budget.MaxPops, stats.BudgetExhausted, renderAnswers(answers), renderAnswers(full))
	}
	_, refStats, err := searchTerms(ref, terms, o)
	if err != nil {
		t.Fatal(err)
	}
	if !refStats.BudgetExhausted || refStats.BudgetReason != "pops" {
		t.Errorf("budget %d without retirement: exhausted=%v reason=%q, want a pops cut", o.Budget.MaxPops, refStats.BudgetExhausted, refStats.BudgetReason)
	}
}

// TestBudgetBytesFaulted drives the bytes axis through a fake fault
// meter: resolution-time exhaustion stops before expansion, and the
// meter's delta is reported in Stats.
func TestBudgetBytesFaulted(t *testing.T) {
	f := newBibFixture(t)
	var meter atomic.Int64
	meter.Store(1 << 20) // pre-existing faults must not charge this query
	s := NewSearcher(f.g, f.ix).WithFaultMeter(meter.Load)

	// The searcher consults the meter but nothing faults: no exhaustion.
	o := defaultBibOptions()
	o.Budget.MaxBytesFaulted = 100
	answers, stats, err := searchTerms(s, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BudgetExhausted || stats.BytesFaulted != 0 || len(answers) == 0 {
		t.Fatalf("no-fault query: answers=%d stats=%+v", len(answers), stats)
	}

	// Simulate resolution faulting past the budget: wrap the meter so it
	// jumps after the base sample. Simplest deterministic route: a meter
	// that advances on every read.
	var reads atomic.Int64
	s2 := NewSearcher(f.g, f.ix).WithFaultMeter(func() int64 {
		return reads.Add(200) // every sample is 200 bytes beyond the last
	})
	answers, stats, err = searchTerms(s2, []string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BudgetExhausted || stats.BudgetReason != "bytes" {
		t.Errorf("exhausted=%v reason=%q, want bytes", stats.BudgetExhausted, stats.BudgetReason)
	}
	if len(answers) != 0 {
		t.Errorf("resolution-time kill returned %d answers", len(answers))
	}
	if stats.BytesFaulted <= 0 {
		t.Errorf("BytesFaulted = %d", stats.BytesFaulted)
	}
}

// TestBudgetZeroIsUnlimited: zero-valued budget axes (beyond the MaxPops
// default) leave a normal query untouched.
func TestBudgetZeroIsUnlimited(t *testing.T) {
	f := newBibFixture(t)
	answers, stats, err := searchTerms(f.s, []string{"soumen", "sunita"}, defaultBibOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BudgetExhausted || stats.BudgetReason != "" {
		t.Errorf("default options flagged exhaustion: %+v", stats)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
}
