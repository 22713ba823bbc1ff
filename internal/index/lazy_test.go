package index

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/graph"
)

// sweptSource serves what an index's ForEachTermSorted and MetaTables
// yield as a LazySource: the round trip a store-opened index takes (the
// store encodes exactly that sweep), minus the byte encoding. Like the
// store, it copies every list it serves. It counts postings fetches and
// can be made to fail.
type sweptSource struct {
	dict    LazyDict
	posts   [][]graph.NodeID
	fetches int
	dictErr error
	postErr error
}

// sweep captures ix's sweep as a sweptSource.
func sweep(t testing.TB, ix *Index) *sweptSource {
	t.Helper()
	src := &sweptSource{dict: LazyDict{Meta: ix.MetaTables()}}
	if err := ix.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		src.dict.Toks = append(src.dict.Toks, tok)
		src.dict.Posts += len(ns)
		src.posts = append(src.posts, append([]graph.NodeID(nil), ns...))
	}); err != nil {
		t.Fatal(err)
	}
	return src
}

func (s *sweptSource) Dict() (*LazyDict, error) {
	if s.dictErr != nil {
		return nil, s.dictErr
	}
	return &s.dict, nil
}

func (s *sweptSource) PostingsAppend(i int, _ string, dst []graph.NodeID) ([]graph.NodeID, error) {
	s.fetches++
	if s.postErr != nil {
		return nil, s.postErr
	}
	return append(dst, s.posts[i]...), nil
}

// reopenLazy round-trips ix through its sweep into a lazy index.
func reopenLazy(t testing.TB, ix *Index) *Index {
	t.Helper()
	return OpenLazy(ix.NumNodes(), sweep(t, ix))
}

// contents renders everything an index holds — its counts, every term's
// postings in sweep order and the metadata map — for equality checks.
func contents(t testing.TB, ix *Index) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d terms=%d postings=%d\n", ix.NumNodes(), ix.NumTerms(), ix.NumPostings())
	if err := ix.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		fmt.Fprintf(&b, "%q %v\n", tok, ns)
	}); err != nil {
		t.Fatal(err)
	}
	meta := ix.MetaTables()
	toks := make([]string, 0, len(meta))
	for tok := range meta {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		fmt.Fprintf(&b, "meta %q %v\n", tok, meta[tok])
	}
	return b.String()
}

func lazyPair(t *testing.T) (*Index, *Index, *sweptSource) {
	t.Helper()
	_, _, eager := newIndexedDB(t)
	src := sweep(t, eager)
	return eager, OpenLazy(eager.NumNodes(), src), src
}

func TestLazyLookupMatchesEager(t *testing.T) {
	eager, lazy, _ := lazyPair(t)
	terms := []string{"transaction", "gray", "author", "missing", "  TRANSACTION  ", "title"}
	for _, term := range terms {
		want, got := eager.Lookup(term), lazy.Lookup(term)
		if !equalNodes(want.Nodes, got.Nodes) || !equalTables(want.Tables, got.Tables) {
			t.Errorf("Lookup(%q): lazy %+v, eager %+v", term, got, want)
		}
	}
	for _, pfx := range []string{"t", "tr", "a", "zzz", ""} {
		if !equalNodes(eager.LookupPrefix(pfx), lazy.LookupPrefix(pfx)) {
			t.Errorf("LookupPrefix(%q) differs", pfx)
		}
	}
	if eager.NumTerms() != lazy.NumTerms() || eager.NumPostings() != lazy.NumPostings() {
		t.Errorf("counters differ: terms %d/%d postings %d/%d",
			lazy.NumTerms(), eager.NumTerms(), lazy.NumPostings(), eager.NumPostings())
	}
	if err := lazy.LazyErr(); err != nil {
		t.Fatal(err)
	}
}

func TestLazySweepMatchesEager(t *testing.T) {
	eager, lazy, _ := lazyPair(t)
	if got, want := contents(t, lazy), contents(t, eager); got != want {
		t.Fatalf("lazy index sweeps differently from the eager index:\n got %s\nwant %s", got, want)
	}
}

// A sweep over a built index hands out the index's own posting lists in
// dictionary order: no key sort, no copy, no allocation.
func TestForEachTermSortedBuiltAllocatesNothing(t *testing.T) {
	_, _, ix := newIndexedDB(t)
	terms := 0
	visit := func(string, []graph.NodeID) { terms++ }
	allocs := testing.AllocsPerRun(10, func() {
		if err := ix.ForEachTermSorted(visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForEachTermSorted on a built index: %v allocs per sweep, want 0", allocs)
	}
	if want := 11 * ix.NumTerms(); terms != want {
		t.Errorf("visited %d terms over 11 sweeps, want %d", terms, want)
	}
}

func TestLazyPrefixFetchesOnlyMatchingTerms(t *testing.T) {
	_, lazy, src := lazyPair(t)
	lazy.LookupPrefix("tr")
	matching := 0
	for _, tok := range src.dict.Toks {
		if strings.HasPrefix(tok, "tr") {
			matching++
		}
	}
	if src.fetches != matching {
		t.Errorf("prefix lookup fetched %d posting lists, want %d (only matching terms)", src.fetches, matching)
	}
}

func TestLazySourceErrorsAreStickyAndSoft(t *testing.T) {
	_, lazy, src := lazyPair(t)
	src.postErr = errors.New("bad sector")
	if m := lazy.Lookup("transaction"); len(m.Nodes) != 0 {
		t.Fatal("failed postings fetch returned nodes")
	}
	if err := lazy.LazyErr(); err == nil || !strings.Contains(err.Error(), "bad sector") {
		t.Fatalf("LazyErr = %v, want the fetch failure", err)
	}

	_, _, eagerForBroken := newIndexedDB(t)
	brokenSrc := sweep(t, eagerForBroken)
	brokenSrc.dictErr = errors.New("no dict")
	broken := OpenLazy(4, brokenSrc)
	if n := broken.NumTerms(); n != 0 {
		t.Fatalf("broken dict NumTerms = %d, want 0", n)
	}
	if err := broken.LazyErr(); err == nil {
		t.Fatal("dict failure not reported")
	}
}

func TestMatchCacheHotKeysAndWarm(t *testing.T) {
	_, _, eager := newIndexedDB(t)
	c := NewMatchCache(1 << 20)
	c.Lookup(eager, 0, "transaction")
	c.Lookup(eager, 0, "gray")
	c.LookupPrefix(eager, 0, "tr")

	keys := c.HotKeys(16)
	if len(keys) != 3 {
		t.Fatalf("HotKeys = %v, want 3 keys", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for _, want := range []string{"=transaction", "=gray", "~tr"} {
		if !seen[want] {
			t.Errorf("HotKeys missing %q (got %v)", want, keys)
		}
	}
	if got := c.HotKeys(2); len(got) != 2 {
		t.Errorf("HotKeys(2) returned %d keys", len(got))
	}

	// Warming a fresh cache with those keys makes them hits.
	fresh := NewMatchCache(1 << 20)
	fresh.Warm(eager, 0, keys)
	st := fresh.Stats()
	if st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("after Warm: %+v, want 3 misses / 3 entries", st)
	}
	fresh.Lookup(eager, 0, "transaction")
	fresh.LookupPrefix(eager, 0, "tr")
	if st := fresh.Stats(); st.Hits != 2 {
		t.Fatalf("warmed lookups missed: %+v", st)
	}

	// Unknown key kinds and nil caches are ignored.
	fresh.Warm(eager, 0, []string{"?junk", ""})
	var nilCache *MatchCache
	nilCache.Warm(eager, 0, keys)
	if nilCache.HotKeys(5) != nil {
		t.Error("nil cache HotKeys != nil")
	}
}

func equalNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalTables(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
