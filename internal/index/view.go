package index

import (
	"strings"

	"github.com/banksdb/banks/internal/graph"
)

// View is the read interface of the keyword index. Two implementations
// serve it: *Index, built or store-opened, and *Overlay — an immutable
// base composed with an in-memory delta of live posting changes. The
// search core and match cache both resolve terms through a View, so
// engines compose without touching the lookup path.
type View interface {
	// Lookup returns the match set for one term (case-insensitive exact
	// token match). Nodes are sorted ascending and deduplicated.
	Lookup(term string) Match
	// LookupPrefix returns the sorted, deduplicated node set across every
	// indexed token with the given prefix.
	LookupPrefix(prefix string) []graph.NodeID
	// PrefixTokens returns the indexed tokens with the given prefix, in
	// ascending order — the per-token decomposition an overlay needs to
	// merge base and delta prefix matches exactly.
	PrefixTokens(prefix string) []string
	// NumTerms returns the number of distinct indexed tokens.
	NumTerms() int
	// NumPostings returns the total posting count.
	NumPostings() int
	// NumNodes returns the node-id space size the index covers.
	NumNodes() int
	// ForEachTermSorted visits every token in ascending order with its
	// posting list; visited slices are read-only.
	ForEachTermSorted(fn func(tok string, ns []graph.NodeID)) error
	// MetaTables returns the metadata token -> table-ids map, read-only.
	MetaTables() map[string][]int32
	// LazyErr reports the first deferred-load failure, or nil.
	LazyErr() error
}

var _ View = (*Index)(nil)

// PrefixTokens returns the indexed tokens beginning with prefix, sorted
// ascending: the contiguous dictionary range. The slice is read-only.
func (ix *Index) PrefixTokens(prefix string) []string {
	prefix = strings.ToLower(strings.TrimSpace(prefix))
	if prefix == "" {
		return nil
	}
	d := ix.ensureDict()
	lo, hi := prefixRange(d.Toks, prefix)
	return d.Toks[lo:hi:hi]
}
