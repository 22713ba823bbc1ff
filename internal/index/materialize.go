package index

import (
	"slices"

	"github.com/banksdb/banks/internal/graph"
)

// Materialize folds any index view — a base+delta Overlay for Compact, a
// whole index for a partition split — into a built Index over a
// renumbered graph: remap maps the view's node IDs to the new graph's
// (graph.NoNode for dropped nodes, which leave every posting list), and
// numNodes is the new graph's node count. A term left with no postings
// is dropped; metadata is copied verbatim. The view is an immutable
// snapshot, so the fold runs without any lock — it is Compact's
// index-side counterpart to graph.Materialize.
//
// The remap need not be monotonic (delta nodes renumber into their
// tables' ranges), so a remapped list that is out of order is re-sorted;
// the result is byte-identical to an index built from scratch over the
// materialized graph.
func Materialize(v View, remap []graph.NodeID, numNodes int) (*Index, error) {
	var toks []string
	var ends []int // term i's postings are posts[ends[i-1]:ends[i]]
	posts := make([]graph.NodeID, 0, v.NumPostings())
	err := v.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		start := len(posts)
		for _, n := range ns {
			if m := remap[n]; m != graph.NoNode {
				posts = append(posts, m)
			}
		}
		if len(posts) == start {
			return
		}
		if out := posts[start:]; !slices.IsSorted(out) {
			slices.Sort(out)
		}
		toks = append(toks, tok)
		ends = append(ends, len(posts))
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]graph.NodeID, len(ends))
	start := 0
	for i, end := range ends {
		lists[i] = posts[start:end]
		start = end
	}
	meta := make(map[string][]int32, len(v.MetaTables()))
	for tok, ts := range v.MetaTables() {
		meta[tok] = slices.Clone(ts)
	}
	return newIndex(numNodes, toks, lists, meta), nil
}
