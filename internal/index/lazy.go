package index

// The index's one form: a sorted term dictionary and a source of posting
// lists. The paper keeps its keyword index on disk; EMBANKS pushes the
// whole engine that way. Every Index is the dictionary (sorted tokens,
// the posting total and the small metadata map) plus a LazySource that
// serves dictionary entry i's posting list. A built index (Build,
// Materialize) wraps its postings in a resident source; a store-opened
// one (OpenLazy) fetches each list from the store on first lookup. Both
// answer through the same methods with the same results: postings arrive
// sorted and deduplicated, exactly as Build leaves them.

import (
	"fmt"
	"slices"
	"strings"

	"github.com/banksdb/banks/internal/graph"
)

// LazyDict is the parsed term dictionary of an index: the sorted token
// list, the total posting count and the metadata (relation/column name)
// map. It is immutable once returned.
type LazyDict struct {
	Toks  []string // sorted ascending; index i keys PostingsAppend(i, ...)
	Posts int      // total postings
	Meta  map[string][]int32
}

// LazySource backs an Index. Dict is called once (memoized by the Index);
// PostingsAppend may be called concurrently and appends the sorted
// posting list of dictionary entry i to dst, returning the extended
// slice. When dst is empty a source may return a read-only slice of its
// own instead, capped so that an append to it copies.
type LazySource interface {
	Dict() (*LazyDict, error)
	PostingsAppend(i int, tok string, dst []graph.NodeID) ([]graph.NodeID, error)
}

// resident is the LazySource of a built index: the dictionary and one
// posting list per term, all in memory. No list is empty.
type resident struct {
	dict  LazyDict
	lists [][]graph.NodeID // parallel to dict.Toks
}

func (r *resident) Dict() (*LazyDict, error) { return &r.dict, nil }

func (r *resident) PostingsAppend(i int, _ string, dst []graph.NodeID) ([]graph.NodeID, error) {
	if len(dst) == 0 {
		return slices.Clip(r.lists[i]), nil
	}
	return append(dst, r.lists[i]...), nil
}

// newIndex returns a built index over numNodes nodes: toks sorted
// ascending, lists[i] the sorted, non-empty posting list of toks[i].
func newIndex(numNodes int, toks []string, lists [][]graph.NodeID, meta map[string][]int32) *Index {
	r := &resident{dict: LazyDict{Toks: toks, Meta: meta}, lists: lists}
	for _, l := range lists {
		r.dict.Posts += len(l)
	}
	ix := &Index{nodes: numNodes, src: r}
	ix.dictOnce.Do(func() { ix.dict = &r.dict })
	return ix
}

// NewFromPostings builds an index over numNodes nodes straight from
// posting and metadata maps, for tests that synthesize match sets without
// a database. Tokens are lowered and empty lists dropped; the lists are
// otherwise taken verbatim, with no sorting or deduplication, so
// consumers of Lookup (such as core.Searcher) must tolerate duplicate
// node entries.
func NewFromPostings(numNodes int, terms map[string][]graph.NodeID, meta map[string][]int32) *Index {
	lowered := make(map[string][]graph.NodeID, len(terms))
	for tok, ns := range terms {
		if len(ns) > 0 {
			tok = strings.ToLower(tok)
			lowered[tok] = append(lowered[tok], ns...)
		}
	}
	toks := make([]string, 0, len(lowered))
	for tok := range lowered {
		toks = append(toks, tok)
	}
	slices.Sort(toks)
	lists := make([][]graph.NodeID, len(toks))
	for i, tok := range toks {
		lists[i] = lowered[tok]
	}
	m := make(map[string][]int32, len(meta))
	for tok, ts := range meta {
		m[strings.ToLower(tok)] = append([]int32(nil), ts...)
	}
	return newIndex(numNodes, toks, lists, m)
}

// OpenLazy returns an Index over a graph of numNodes nodes whose term
// dictionary and postings load from src on first use. On a source
// failure lookups degrade to empty matches and the first error is
// reported by LazyErr.
func OpenLazy(numNodes int, src LazySource) *Index {
	return &Index{nodes: numNodes, src: src}
}

// LazyErr reports the first dictionary- or postings-load failure, or nil.
// A built index never fails.
func (ix *Index) LazyErr() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.err
}

func (ix *Index) setErr(err error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.err == nil {
		ix.err = err
	}
}

// ensureDict loads the term dictionary once; on failure it installs an
// empty dictionary and records the sticky error.
func (ix *Index) ensureDict() *LazyDict {
	ix.dictOnce.Do(func() {
		d, err := ix.src.Dict()
		if err == nil && !slices.IsSorted(d.Toks) {
			err = fmt.Errorf("index: dictionary tokens not sorted")
		}
		if err != nil {
			ix.setErr(fmt.Errorf("index: loading term dictionary: %w", err))
			d = &LazyDict{Meta: map[string][]int32{}}
		}
		ix.dict = d
	})
	return ix.dict
}

// postings appends dictionary entry i's posting list to dst, as
// LazySource.PostingsAppend does; on a source failure it records the
// error and returns dst unchanged.
func (ix *Index) postings(i int, tok string, dst []graph.NodeID) []graph.NodeID {
	ns, err := ix.src.PostingsAppend(i, tok, dst)
	if err != nil {
		ix.setErr(fmt.Errorf("index: loading postings for %q: %w", tok, err))
		return dst
	}
	return ns
}

// prefixRange returns the range [lo, hi) of the sorted toks that begin
// with prefix.
func prefixRange(toks []string, prefix string) (lo, hi int) {
	lo, _ = slices.BinarySearch(toks, prefix)
	hi = lo
	for hi < len(toks) && strings.HasPrefix(toks[hi], prefix) {
		hi++
	}
	return lo, hi
}
