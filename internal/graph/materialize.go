package graph

import "strings"

// Materialize folds any graph view — typically a base+delta Overlay —
// into a concrete CSR Graph, off to the side and without touching the
// view. It is how Compact turns the accumulated overlay into the next
// base graph while writers keep appending to a new delta: the view is an
// immutable snapshot, so no lock is needed during the fold.
//
// Nodes are renumbered table-major in EachTableNode order. For an
// overlay that is base-ascending followed by delta-insertion order,
// which is ascending RID per table (RIDs are monotonic and never
// reused) — the same order a from-scratch rebuild scans, so the
// materialized graph is numbered exactly like a rebuild. The returned
// remap maps old (view) node IDs to new ones; tombstoned nodes map to
// NoNode. When the view has no delta nodes and no tombstones the remap
// is the identity.
func Materialize(v View) (*Graph, []NodeID) {
	nt := v.NumTables()
	g := &Graph{
		tableNames: make([]string, nt),
		tableIDs:   make(map[string]int32, nt),
		tableStart: make([]NodeID, nt+1),
		nodeOf:     make([][]NodeID, nt),
	}
	remap := make([]NodeID, v.NumNodes())
	for i := range remap {
		remap[i] = NoNode
	}
	for t := int32(0); t < int32(nt); t++ {
		name := v.TableName(t)
		g.tableNames[t] = name
		g.tableIDs[strings.ToLower(name)] = t
		g.tableStart[t] = NodeID(len(g.tableOf))
		v.EachTableNode(t, func(old NodeID) bool {
			n := NodeID(len(g.tableOf))
			remap[old] = n
			g.tableOf = append(g.tableOf, t)
			rid := v.RIDOf(old)
			g.ridOf = append(g.ridOf, rid)
			for int(rid) >= len(g.nodeOf[t]) {
				g.nodeOf[t] = append(g.nodeOf[t], NoNode)
			}
			g.nodeOf[t][rid] = n
			g.prestige = append(g.prestige, v.Prestige(old))
			return true
		})
	}
	g.tableStart[nt] = NodeID(len(g.tableOf))

	// Carry every live arc through the remap. finish sorts and merges, so
	// collection order does not matter, and it recomputes the w_min/w_max
	// normalizers from scratch — byte-identical to a rebuild's.
	arcs := make([]arc, 0, v.NumArcs())
	for old, n := range remap {
		if n == NoNode {
			continue
		}
		for _, e := range v.Out(NodeID(old)) {
			if to := remap[e.To]; to != NoNode {
				arcs = append(arcs, arc{from: n, to: to, w: e.W})
			}
		}
	}
	g.finish(arcs)
	return g, remap
}
