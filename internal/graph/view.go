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
// TestArcsAreSymmetricInEveryForm pins the invariant. Every arc weight is
// also finite and strictly positive, which the search's shortest-path
// iterator needs to settle nodes in order (TestArcWeightsPositiveInEveryForm).
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
	// Keys returns the view's node-key table. It is built on the first
	// call, never at open, and shared by every later call.
	Keys() Keys
}

// Keys is a view's node-key table: the stable (table, rid) identity of
// every node id, packed into one comparable word (see Key). Search breaks
// distance ties on it rather than on the NodeID, so that two engines
// holding the same logical graph under different node numberings — a
// delta overlay with appended nodes versus a from-scratch rebuild that
// renumbers them into their table blocks — settle tied nodes, choose tied
// parents and order answers identically.
//
// The table is a base slice plus an appended-nodes slice, so an overlay
// shares its base's table and adds only its own appended nodes.
type Keys struct {
	base []uint64 // keys of ids [0, len(base))
	app  []uint64 // keys of ids [len(base), len(base)+len(app))
}

// Key packs a node identity into the word Keys holds: table id in the top
// 16 bits, rid in the low 48.
func Key(table int32, rid sqldb.RID) uint64 {
	return uint64(table)<<48 | uint64(rid)&(1<<48-1)
}

// NewKeys wraps a key table indexed by node id.
func NewKeys(keys []uint64) Keys { return Keys{base: keys} }

// Of returns node n's key.
func (k *Keys) Of(n NodeID) uint64 {
	if int(n) < len(k.base) {
		return k.base[n]
	}
	return k.app[int(n)-len(k.base)]
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
