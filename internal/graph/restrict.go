package graph

import "strings"

// Restrict folds the kept subset of a graph view into a concrete CSR
// Graph: the partition-store builder of internal/cluster. It is
// Materialize with a node filter — nodes are renumbered table-major in
// EachTableNode order, skipping nodes keep rejects, and only arcs with
// both endpoints kept survive — plus one deliberate deviation: the §2.3
// score normalizers (w_min, w_max) are copied from the source view
// instead of being recomputed from the surviving arcs and prestige.
//
// That copy is what makes partitioned scoring exact. EScore divides by
// the graph's minimum arc weight and NScore by its maximum prestige; if
// each partition renormalized against its own extrema, the same
// connection tree would score differently depending on which partition
// held it. With the global normalizers carried over, any tree that lies
// entirely inside one partition scores bit-identically to the
// single-engine search — the store's graph-meta segment persists both
// values verbatim (EncodeMeta/OpenLazy), so the guarantee survives the
// partition-store round trip.
//
// The returned remap maps view node IDs to partition node IDs, NoNode
// for dropped nodes. Every table of the view exists in the restriction
// (possibly with an empty node range), so table IDs are stable across
// partitions.
func Restrict(v View, keep func(NodeID) bool) (*Graph, []NodeID) {
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
			if !keep(old) {
				return true
			}
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

	arcs := make([]arc, 0)
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
	// Override the recomputed normalizers with the source view's global
	// ones — see the package comment above for why partitioned scoring
	// depends on this.
	g.minEdge = v.MinEdgeWeight()
	g.maxNode = v.MaxNodeWeight()
	return g, remap
}
