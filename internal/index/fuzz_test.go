package index

// Fuzz coverage for Tokenize (rune boundaries, mixed scripts, invalid
// UTF-8) and for the lazy round trip every store-opened index takes (a
// sweep served back through a LazySource must answer like the index it
// came from). Seed corpora live under testdata/fuzz/ so `go test` replays
// them on every run; `go test -fuzz` explores further.

import (
	"sort"
	"strings"
	"testing"
	"unicode"

	"github.com/banksdb/banks/internal/graph"
)

// FuzzTokenize checks both faces of the one tokenizer against an
// independently-built oracle: strings.FieldsFunc splitting on the same
// rune classes, lowered by strings.ToLower. Tokenize must return the
// oracle's tokens, and the buffered tokenScanner the index build drives
// must yield them too, each from the oracle's span of s, with a buffer
// left dirty by an earlier string. Both decode invalid UTF-8 identically
// (RuneError is not a letter), so the outputs must match exactly.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"",
		"hello world",
		"vldb 1998",
		"a1b2c3 4d5e",
		"Ünïcode—dash and café",
		"日本語123テスト",
		"x_y-z.w:q;r",
		"MiXeD CaSe WORDS",
		"\x80\xfftrailing invalid\xc3(",
		"İstanbul DİACRİTİC",
		"123 456 789",
		"a",
		"Café",
		"İstanbul",
		"ǅemal",
		"naïve Ölçü straße ΣΊΣΥΦΟΣ",
		"Zürich AZ",
		"the last token ends the string",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Tokenize(s)
		want := strings.FieldsFunc(s, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		})
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %d tokens, oracle %d: %q vs %q", s, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != strings.ToLower(want[i]) {
				t.Fatalf("Tokenize(%q)[%d] = %q, oracle %q", s, i, got[i], strings.ToLower(want[i]))
			}
			if got[i] == "" {
				t.Fatalf("Tokenize(%q) produced an empty token", s)
			}
		}

		// The buffer comes back dirty from a longer token of another string.
		dirty := tokenScanner{s: "ÆØÅLONGERTHANMOSTTOKENS"}
		buf, _ := dirty.next(nil)
		sc := tokenScanner{s: s}
		rest := s // s with the tokens matched so far cut off
		i := 0
		for tok, ok := sc.next(buf); ok; tok, ok = sc.next(tok) {
			if i >= len(want) {
				t.Fatalf("scanner on %q: token %d %q past the oracle's %d", s, i, tok, len(want))
			}
			if string(tok) != strings.ToLower(want[i]) {
				t.Fatalf("scanner on %q: token %d = %q, oracle %q", s, i, tok, strings.ToLower(want[i]))
			}
			at := len(s) - len(rest) + strings.Index(rest, want[i])
			if raw := s[sc.start:sc.end]; raw != want[i] || sc.start != at {
				t.Fatalf("scanner on %q: token %d spans %q at %d, oracle %q at %d", s, i, raw, sc.start, want[i], at)
			}
			rest = s[sc.end:]
			i++
		}
		if i != len(want) {
			t.Fatalf("scanner on %q: %d tokens, oracle %d", s, i, len(want))
		}
		if _, ok := sc.next(nil); ok {
			t.Fatalf("scanner on %q: token after the end", s)
		}
	})
}

// fuzzIndex shapes an eager index from arbitrary bytes: the j-th token
// of Tokenize(data) posts node j mod nodes, and each distinct token is
// also metadata for table len(token) mod 4. Postings come out sorted and
// deduplicated, as Build leaves them.
func fuzzIndex(data []byte) *Index {
	nodes := 1
	if len(data) > 0 {
		nodes += int(data[0])
	}
	sets := map[string]map[graph.NodeID]bool{}
	meta := map[string][]int32{}
	for j, tok := range Tokenize(string(data)) {
		if sets[tok] == nil {
			sets[tok] = map[graph.NodeID]bool{}
			meta[tok] = []int32{int32(len(tok) % 4)}
		}
		sets[tok][graph.NodeID(j%nodes)] = true
	}
	terms := make(map[string][]graph.NodeID, len(sets))
	for tok, set := range sets {
		for n := range set {
			terms[tok] = append(terms[tok], n)
		}
		sort.Slice(terms[tok], func(a, b int) bool { return terms[tok][a] < terms[tok][b] })
	}
	return NewFromPostings(nodes, terms, meta)
}

// FuzzIndexRoundTrip round-trips a fuzz-shaped index through its sweep
// (ForEachTermSorted + MetaTables, what the store encodes) into a lazy
// index. The lazy index must hold the same contents and answer every
// exact and prefix lookup like the eager one, and a second round trip
// must be a fixed point.
func FuzzIndexRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"alpha beta gamma alpha",
		"",
		"NOTANINDEX",
		"vldb 1998 vldb 1999 vldb",
		"Ünïcode café café CAFÉ",
		"a b c d e f g h a b",
		"\xff\x07 trailing garbage",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eager := fuzzIndex(data)
		lazy := reopenLazy(t, eager)
		want := contents(t, eager)
		if got := contents(t, lazy); got != want {
			t.Fatalf("lazy round trip changed the index:\n got %s\nwant %s", got, want)
		}
		if got := contents(t, reopenLazy(t, lazy)); got != want {
			t.Fatalf("second round trip is not a fixed point:\n got %s\nwant %s", got, want)
		}
		var toks []string
		if err := eager.ForEachTermSorted(func(tok string, _ []graph.NodeID) { toks = append(toks, tok) }); err != nil {
			t.Fatal(err)
		}
		for _, tok := range toks {
			a, b := eager.Lookup(tok), lazy.Lookup(tok)
			if !equalNodes(a.Nodes, b.Nodes) || !equalTables(a.Tables, b.Tables) {
				t.Fatalf("Lookup(%q): lazy %+v, eager %+v", tok, b, a)
			}
			pfx := string([]rune(tok)[:1])
			if !equalNodes(eager.LookupPrefix(pfx), lazy.LookupPrefix(pfx)) {
				t.Fatalf("LookupPrefix(%q) differs", pfx)
			}
		}
		if err := lazy.LazyErr(); err != nil {
			t.Fatal(err)
		}
	})
}
