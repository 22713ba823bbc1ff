package graph

import "github.com/banksdb/banks/internal/sqldb"

// View is the read interface of a data graph. Three implementations serve
// it with identical semantics: the built *Graph, the store-opened lazy
// *Graph (OpenLazy), and *Overlay — an immutable base composed with an
// in-memory delta of live mutations. Search (internal/core), answer
// rendering and the web UI all run against a View, so an engine can be
// swapped between batch-built, disk-resident and base+delta forms without
// touching the read path.
//
// Every form keeps arcs symmetric: each FK link yields a forward arc u->v
// and a backward arc v->u (weights may differ), and In mirrors Out. So a
// node's backward-reachable set is its connected component, which the
// search's iterator retirement relies on (internal/core, iteratorDone).
// TestArcsAreSymmetricInEveryForm pins the invariant.
type View interface {
	// NumNodes returns the node-id space size: dense ids in [0, NumNodes).
	// An overlay may contain tombstoned ids inside the range; they are
	// unreachable (no arcs, no postings, NodeOf never returns them).
	NumNodes() int
	// NumArcs returns the directed arc count (forward + backward).
	NumArcs() int
	// NumTables returns the number of relations.
	NumTables() int
	// TableName returns the name of table id t.
	TableName(t int32) string
	// TableID returns the id for a table name (case-insensitive), or -1.
	TableID(name string) int32
	// TableOf returns the table id of node n.
	TableOf(n NodeID) int32
	// TableNameOf returns the table name of node n.
	TableNameOf(n NodeID) string
	// RIDOf returns the row id of node n within its table.
	RIDOf(n NodeID) sqldb.RID
	// NodeOf returns the live node for (table, rid), or NoNode.
	NodeOf(table string, rid sqldb.RID) NodeID
	// EachTableNode visits every live node of table t in ascending node-id
	// order (the metadata-match expansion order). Returning false from fn
	// stops the walk.
	EachTableNode(t int32, fn func(NodeID) bool)
	// Out returns the out-edges of n, sorted by target. Read-only.
	Out(n NodeID) []Edge
	// In returns the in-edges of n as (source, weight) pairs, sorted by
	// source. Read-only.
	In(n NodeID) []Edge
	// ArcWeight returns the weight of arc u->v, or -1 when absent.
	ArcWeight(u, v NodeID) float64
	// Prestige returns the node weight (reference indegree) of n.
	Prestige(n NodeID) float64
	// MinEdgeWeight returns w_min, the edge-score normalizer (§2.3).
	MinEdgeWeight() float64
	// MaxNodeWeight returns w_max, the node-score normalizer (§2.3).
	MaxNodeWeight() float64
	// MemoryFootprint estimates the resident bytes of the view.
	MemoryFootprint() int64
	// LazyErr reports the first deferred-load failure, or nil. Views with
	// no deferred state always return nil.
	LazyErr() error
}

var _ View = (*Graph)(nil)

// EachTableNode visits every node of table t in ascending id order; nodes
// of a built graph are contiguous per table, so this walks [lo, hi).
func (g *Graph) EachTableNode(t int32, fn func(NodeID) bool) {
	for n, hi := g.tableStart[t], g.tableStart[t+1]; n < hi; n++ {
		if !fn(n) {
			return
		}
	}
}
