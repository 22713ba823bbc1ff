package index

// Lazy (disk-resident) indexes. The paper keeps its keyword index on disk;
// EMBANKS pushes the whole engine that way. A lazy Index keeps only the
// term dictionary resident (sorted tokens, posting counts and the small
// metadata map) and fetches each term's posting list from a LazySource on
// first lookup — where those bytes live (internal/store serves them from
// a mapped file) is the source's concern, not the index's. Lookup results are identical to the eager index built from the
// same data: postings arrive sorted and deduplicated, exactly as Build
// leaves them.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/banksdb/banks/internal/graph"
)

// LazyDict is the parsed term dictionary of a store-opened index: the
// sorted token list, per-term posting counts, the total posting count and
// the metadata (relation/column name) map. It is immutable once returned.
type LazyDict struct {
	Toks   []string // sorted ascending; index i keys Postings(i, ...)
	Counts []int    // postings per term, parallel to Toks
	Posts  int      // total postings
	Meta   map[string][]int32
}

// LazySource backs a lazy Index. Dict is called once (memoized by the
// Index); Postings may be called concurrently and must return the decoded,
// sorted posting list of dictionary entry i. Returned slices are treated
// as immutable.
type LazySource interface {
	Dict() (*LazyDict, error)
	Postings(i int, tok string) ([]graph.NodeID, error)
}

// appendSource is the optional buffer-reuse read path: decode dictionary
// entry i's postings appending onto dst and return the extended slice.
// Prefix lookups use it to fill one output buffer across a term range
// instead of allocating a slice per term.
type appendSource interface {
	PostingsAppend(i int, tok string, dst []graph.NodeID) ([]graph.NodeID, error)
}

// lazyIndex is the deferred state of a store-opened Index.
type lazyIndex struct {
	src      LazySource
	dictOnce sync.Once
	dict     *LazyDict
	mu       sync.Mutex
	err      error
}

func (l *lazyIndex) setErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// OpenLazy returns an Index over a graph of numNodes nodes whose term
// dictionary and postings load from src on first use. The returned Index
// supports the full read interface (Lookup, LookupPrefix, ForEachTermSorted, the
// counters); on a source failure lookups degrade to empty matches and the
// first error is reported by LazyErr.
func OpenLazy(numNodes int, src LazySource) *Index {
	return &Index{nodes: numNodes, lazy: &lazyIndex{src: src}}
}

// LazyErr reports the first dictionary- or postings-load failure of a
// store-opened index, or nil. Eager indexes always return nil.
func (ix *Index) LazyErr() error {
	if ix.lazy == nil {
		return nil
	}
	ix.lazy.mu.Lock()
	defer ix.lazy.mu.Unlock()
	return ix.lazy.err
}

// ensureDict loads the term dictionary once; on failure it installs an
// empty dictionary and records the sticky error.
func (ix *Index) ensureDict() *LazyDict {
	l := ix.lazy
	l.dictOnce.Do(func() {
		d, err := l.src.Dict()
		if err == nil {
			if len(d.Counts) != len(d.Toks) {
				err = fmt.Errorf("index: dictionary has %d counts for %d terms", len(d.Counts), len(d.Toks))
			} else if !sort.StringsAreSorted(d.Toks) {
				err = fmt.Errorf("index: dictionary tokens not sorted")
			}
		}
		if err != nil {
			l.setErr(fmt.Errorf("index: loading term dictionary: %w", err))
			d = &LazyDict{Meta: map[string][]int32{}}
		}
		l.dict = d
	})
	return l.dict
}

// lazyPostings fetches dictionary entry i, degrading to nil on failure.
func (ix *Index) lazyPostings(i int, tok string) []graph.NodeID {
	ns, err := ix.lazy.src.Postings(i, tok)
	if err != nil {
		ix.lazy.setErr(fmt.Errorf("index: loading postings for %q: %w", tok, err))
		return nil
	}
	return ns
}

// lazyLookup is Lookup for a store-opened index: a binary search of the
// resident dictionary, then one postings fetch.
func (ix *Index) lazyLookup(tok string) Match {
	d := ix.ensureDict()
	m := Match{Tables: d.Meta[tok]}
	if i := sort.SearchStrings(d.Toks, tok); i < len(d.Toks) && d.Toks[i] == tok {
		m.Nodes = ix.lazyPostings(i, tok)
	}
	return m
}

// lazyLookupPrefix is LookupPrefix for a store-opened index: the sorted
// dictionary makes the prefix range contiguous, so only matching terms'
// postings are fetched (the eager index must walk its whole vocabulary).
// With an append-capable source the whole range decodes into one output
// buffer.
func (ix *Index) lazyLookupPrefix(prefix string) []graph.NodeID {
	d := ix.ensureDict()
	var out []graph.NodeID
	app, canAppend := ix.lazy.src.(appendSource)
	for i := sort.SearchStrings(d.Toks, prefix); i < len(d.Toks) && strings.HasPrefix(d.Toks[i], prefix); i++ {
		if canAppend {
			ns, err := app.PostingsAppend(i, d.Toks[i], out)
			if err != nil {
				ix.lazy.setErr(fmt.Errorf("index: loading postings for %q: %w", d.Toks[i], err))
				continue
			}
			out = ns
			continue
		}
		out = append(out, ix.lazyPostings(i, d.Toks[i])...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup
}
