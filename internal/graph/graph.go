// Package graph implements the BANKS data graph of Section 2 of the paper:
// every tuple is a node, every foreign-key link from tuple u to tuple v
// yields a forward edge u->v with weight s(R(u),R(v)) and a backward edge
// v->u whose weight additionally scales with the indegree of v contributed
// by tuples of u's relation — the paper's fix for "hub" nodes collapsing
// proximity. Node prestige is the reference indegree, the paper's
// PageRank-inspired node weight.
//
// Nodes store only their table id and RID, matching the paper's observation
// that "the in-memory node representation need not store any attribute of
// the corresponding tuple other than the RID", which is what lets graphs of
// millions of tuples fit in memory.
package graph

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/banksdb/banks/internal/sqldb"
)

// NodeID identifies a node of the data graph. IDs are dense from 0.
type NodeID int32

// NoNode is the invalid node id.
const NoNode NodeID = -1

// Edge is one directed arc to To with weight W (smaller = closer).
type Edge struct {
	To NodeID
	W  float64
}

// Graph is the immutable data graph built from a database snapshot.
type Graph struct {
	tableNames []string         // table id -> name
	tableIDs   map[string]int32 // strings.ToLower(name) -> table id
	tableStart []NodeID         // nodes of table t are [tableStart[t], tableStart[t+1])

	tableOf []int32     // node -> table id
	ridOf   []sqldb.RID // node -> rid
	nodeOf  [][]NodeID  // table id -> rid -> node (NoNode for tombstones)

	// Adjacency is stored in CSR (compressed sparse row) form: the
	// out-edges of node n are fwdEdges[fwdOff[n]:fwdOff[n+1]], likewise for
	// the reverse direction. Two flat arrays per direction instead of a
	// slice-of-slices keeps the per-node overhead at 4 bytes and makes the
	// Dijkstra relaxation loop walk contiguous memory.
	fwdOff   []int32 // len NumNodes+1
	fwdEdges []Edge  // out-edges (both FK-forward and indegree-scaled backward arcs)
	revOff   []int32
	revEdges []Edge // in-edges: revEdges[revOff[v]:revOff[v+1]] = (u, w(u->v)) for every arc u->v

	prestige []float64 // node weight: FK reference indegree

	minEdge float64 // minimum arc weight (w_min in §2.3), 1 if no arcs
	maxNode float64 // maximum node weight (w_max in §2.3), 0 if no references
	numArcs int

	// keys is the node-key table, built by the first Keys call.
	keysOnce sync.Once
	keys     []uint64

	// lazy is non-nil for store-opened graphs (OpenLazy): the adjacency
	// and node-metadata arrays above are loaded from their segments on
	// first touch. nil for built graphs, making the ensure hooks in the
	// accessors a single predictable branch.
	lazy *lazyGraph
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.tableOf) }

// NumArcs returns the directed arc count (forward + backward).
func (g *Graph) NumArcs() int { return g.numArcs }

// NumTables returns the number of relations in the graph.
func (g *Graph) NumTables() int { return len(g.tableNames) }

// TableName returns the name of table id t.
func (g *Graph) TableName(t int32) string { return g.tableNames[t] }

// TableID returns the id for a table name (case-insensitive), or -1.
// The name folds as strings.ToLower folds it. An ASCII name is folded
// into a stack buffer, so the lookups every query makes (its excluded
// root tables) allocate nothing.
func (g *Graph) TableID(name string) int32 {
	var buf [64]byte
	key := append(buf[:0], name...)
	for i, c := range key {
		if c >= utf8.RuneSelf {
			key = []byte(strings.ToLower(name))
			break
		}
		if 'A' <= c && c <= 'Z' {
			key[i] = c + 'a' - 'A'
		}
	}
	if id, ok := g.tableIDs[string(key)]; ok {
		return id
	}
	return -1
}

// TableOf returns the table id of node n.
func (g *Graph) TableOf(n NodeID) int32 { return g.tableOf[n] }

// TableNameOf returns the table name of node n.
func (g *Graph) TableNameOf(n NodeID) string { return g.tableNames[g.tableOf[n]] }

// RIDOf returns the row id of node n within its table.
func (g *Graph) RIDOf(n NodeID) sqldb.RID {
	g.ensureNodeMeta()
	return g.ridOf[n]
}

// NodeOf returns the node for (table, rid), or NoNode.
func (g *Graph) NodeOf(table string, rid sqldb.RID) NodeID {
	t := g.TableID(table)
	if t < 0 {
		return NoNode
	}
	m := g.TableNodes(t)
	if rid < 0 || int(rid) >= len(m) {
		return NoNode
	}
	return m[rid]
}

// TableNodes returns table t's rid -> node map (NoNode for tombstones).
// Callers must not mutate it.
func (g *Graph) TableNodes(t int32) []NodeID {
	g.ensureNodeMeta()
	return g.nodeOf[t]
}

// NodesOfTable returns the (contiguous) node range [lo, hi) of table id t.
func (g *Graph) NodesOfTable(t int32) (lo, hi NodeID) {
	return g.tableStart[t], g.tableStart[t+1]
}

// Keys returns the node-key table, building it on the first call: one
// word per node, from the node-metadata arrays of a store-opened graph.
func (g *Graph) Keys() Keys {
	g.keysOnce.Do(func() {
		g.ensureNodeMeta()
		keys := make([]uint64, len(g.tableOf))
		for n, t := range g.tableOf {
			keys[n] = Key(t, g.ridOf[n])
		}
		g.keys = keys
	})
	return NewKeys(g.keys)
}

// Out returns the out-edges of n. Callers must not mutate the slice.
func (g *Graph) Out(n NodeID) []Edge {
	g.ensureArcs()
	return g.fwdEdges[g.fwdOff[n]:g.fwdOff[n+1]]
}

// In returns the in-edges of n as (source, weight-of-arc-into-n) pairs.
// Callers must not mutate the slice.
func (g *Graph) In(n NodeID) []Edge {
	g.ensureArcs()
	return g.revEdges[g.revOff[n]:g.revOff[n+1]]
}

// ArcWeight returns the weight of arc u->v, or -1 when absent.
func (g *Graph) ArcWeight(u, v NodeID) float64 {
	for _, e := range g.Out(u) {
		if e.To == v {
			return e.W
		}
	}
	return -1
}

// Prestige returns the node weight (reference indegree) of n.
func (g *Graph) Prestige(n NodeID) float64 {
	g.ensureNodeMeta()
	return g.prestige[n]
}

// MinEdgeWeight returns w_min, the normalizer for edge scores (§2.3).
func (g *Graph) MinEdgeWeight() float64 { return g.minEdge }

// MaxNodeWeight returns w_max, the normalizer for node scores (§2.3).
func (g *Graph) MaxNodeWeight() float64 { return g.maxNode }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d tables, %d nodes, %d arcs}", g.NumTables(), g.NumNodes(), g.NumArcs())
}

// MemoryFootprint estimates the resident bytes of the graph structures; it
// backs the Section 5.2 space experiment (the paper measured ~120 MB for a
// 100K-node/300K-edge graph in Java).
func (g *Graph) MemoryFootprint() int64 {
	var b int64
	b += int64(len(g.tableOf)) * 4
	b += int64(len(g.ridOf)) * 8
	b += int64(len(g.prestige)) * 8
	for _, m := range g.nodeOf {
		b += int64(len(m)) * 4
	}
	b += int64(len(g.fwdEdges)+len(g.revEdges)) * 16
	b += int64(len(g.fwdOff)+len(g.revOff)) * 4
	return b
}

// arc is a builder-internal directed edge.
type arc struct {
	from, to NodeID
	w        float64
}

// finish fills the adjacency, reverse adjacency and normalizers from an
// unordered arc list. Two stable counting passes, by target and then by
// source, group the arcs by (from, to) with targets ascending under each
// source, in O(arcs + nodes); each group of parallel arcs is merged to its
// minimum weight (Equation 1 of the paper), and a third pass orders the
// result by target for the reverse adjacency. Only the per-pair minima
// reach the output, so it does not depend on the order of arcs.
func (g *Graph) finish(arcs []arc) {
	nn := g.NumNodes()
	tmp := make([]arc, len(arcs))
	scatterArcs(tmp, arcs, nn, func(a arc) NodeID { return a.to })
	scatterArcs(arcs, tmp, nn, func(a arc) NodeID { return a.from })
	g.fwdOff = make([]int32, nn+1)
	merged := arcs[:0]
	for _, a := range arcs {
		if n := len(merged); n > 0 && merged[n-1].from == a.from && merged[n-1].to == a.to {
			if a.w < merged[n-1].w {
				merged[n-1].w = a.w
			}
			continue
		}
		merged = append(merged, a)
		g.fwdOff[a.from+1]++
	}
	for n := 0; n < nn; n++ {
		g.fwdOff[n+1] += g.fwdOff[n]
	}
	byTo := tmp[:len(merged)]
	g.revOff = scatterArcs(byTo, merged, nn, func(a arc) NodeID { return a.to })
	g.fwdEdges = make([]Edge, len(merged))
	g.revEdges = make([]Edge, len(merged))
	g.minEdge = 0
	for i, a := range merged {
		g.fwdEdges[i] = Edge{To: a.to, W: a.w}
		g.revEdges[i] = Edge{To: byTo[i].from, W: byTo[i].w}
		if g.minEdge == 0 || a.w < g.minEdge {
			g.minEdge = a.w
		}
	}
	if g.minEdge == 0 {
		g.minEdge = 1
	}
	g.numArcs = len(merged)
	g.maxNode = 0
	for _, p := range g.prestige {
		if p > g.maxNode {
			g.maxNode = p
		}
	}
}

// scatterArcs is one stable counting-sort pass: it copies src into dst
// ordered by key, keeping src's order among arcs with equal keys, and
// returns the offsets of dst: the arcs with key k are dst[off[k]:off[k+1]].
func scatterArcs(dst, src []arc, nn int, key func(arc) NodeID) []int32 {
	off := make([]int32, nn+1)
	for _, a := range src {
		off[key(a)+1]++
	}
	for k := 0; k < nn; k++ {
		off[k+1] += off[k]
	}
	next := slices.Clone(off)
	for _, a := range src {
		k := key(a)
		dst[next[k]] = a
		next[k]++
	}
	return off
}
