package graph

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/par"
	"github.com/banksdb/banks/internal/sqldb"
)

// BuildOptions tune graph construction.
type BuildOptions struct {
	// ScaleBackEdges applies the paper's indegree scaling to backward
	// edges (w(v->u) = s(R(u),R(v)) * IN_{R(u)}(v)). Disabling it (for the
	// hub ablation) gives every backward edge the forward weight.
	ScaleBackEdges bool

	// PrestigeDamping, when > 0 and < 1, replaces raw-indegree prestige
	// with a PageRank-style power iteration using this damping factor —
	// the "transfer of prestige" extension the paper mentions can "easily
	// be added to the model".
	PrestigeDamping float64

	// PrestigeIters bounds the power iteration (default 20).
	PrestigeIters int

	// Shards caps how many concurrent workers build the graph. 0 uses
	// runtime.GOMAXPROCS(0); 1 forces the serial build. Every shard count
	// produces byte-identical graphs: node ids are assigned by a
	// deterministic per-range prefix sum, per-shard link lists are merged
	// in (table, row-range) order, and the serial CSR fill keeps only the
	// minimum weight per (from, to) pair, whatever order arcs arrive in.
	Shards int

	// LayoutOrder selects the node-numbering pass applied before arcs are
	// materialized. "" or LayoutRID keeps per-table RID order (the
	// default). LayoutDegree renumbers each table by descending structural
	// degree (ties broken by ascending RID), packing hub rows — the nodes
	// a backward expanding search touches most — into adjacent CSR rows so
	// their adjacency lists share cache lines and mapped pages. Answers
	// are layout-independent: result identity and every tie-break key off
	// (table, RID), never node id.
	LayoutOrder string
}

// Layout orders accepted by BuildOptions.LayoutOrder.
const (
	LayoutRID    = "rid"
	LayoutDegree = "degree"
)

// DefaultBuildOptions returns the paper's configuration.
func DefaultBuildOptions() *BuildOptions {
	return &BuildOptions{ScaleBackEdges: true}
}

// link is one resolved FK reference from tuple `from` to tuple `to` with
// relation similarity s(R(from), R(to)).
type link struct {
	from, to NodeID
	w        float64
}

// buildShard is one contiguous RID range of one table; the unit of
// parallelism for every build pass. Shards of a table are ordered by RID
// range, and the global shard list is ordered by (table, range), so
// concatenating per-shard outputs reproduces the serial scan order exactly.
type buildShard struct {
	tbl    int       // index into the build's table list
	lo, hi sqldb.RID // scan range [lo, hi)

	liveRows int    // pass A: live rows in range
	base     NodeID // first node id assigned to this range

	links []link // pass C: resolved FK links, in scan order
}

// buildShardSize is the minimum row-range per shard; tables smaller than
// this are built by a single worker, avoiding goroutine overhead on the
// many small relations of a typical schema.
const buildShardSize = 512

// planShards splits every table into up to `shards` contiguous RID ranges.
func planShards(tables []tableInfo, shards int) []buildShard {
	var plan []buildShard
	for i, ti := range tables {
		capRows := ti.t.Cap()
		chunk := (capRows + shards - 1) / shards
		if chunk < buildShardSize {
			chunk = buildShardSize
		}
		if capRows == 0 {
			plan = append(plan, buildShard{tbl: i})
			continue
		}
		for lo := 0; lo < capRows; lo += chunk {
			hi := lo + chunk
			if hi > capRows {
				hi = capRows
			}
			plan = append(plan, buildShard{tbl: i, lo: sqldb.RID(lo), hi: sqldb.RID(hi)})
		}
	}
	return plan
}

type tableInfo struct {
	t  *sqldb.Table
	id int32
}

// Build constructs the data graph from a database snapshot. The caller
// should not mutate the database concurrently. Construction is sharded
// over opts.Shards workers (GOMAXPROCS by default) and the result is
// byte-identical to a serial build.
func Build(db *sqldb.Database, opts *BuildOptions) (*Graph, error) {
	if opts == nil {
		opts = DefaultBuildOptions()
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	db.RLock()
	defer db.RUnlock()

	g := &Graph{tableIDs: make(map[string]int32)}
	names := db.TableNames()
	tables := make([]tableInfo, 0, len(names))
	for _, name := range names {
		t := db.Table(name)
		if t == nil {
			return nil, fmt.Errorf("graph: table %s disappeared during build", name)
		}
		id := int32(len(g.tableNames))
		g.tableNames = append(g.tableNames, t.Name())
		g.tableIDs[strings.ToLower(t.Name())] = id
		tables = append(tables, tableInfo{t: t, id: id})
	}

	plan := planShards(tables, shards)

	// Pass A (parallel): count live rows per shard, so node ids can be
	// assigned without scanning serially.
	par.Run(len(plan), shards, func(i int) {
		sh := &plan[i]
		n := 0
		tables[sh.tbl].t.ScanRange(sh.lo, sh.hi, func(sqldb.RID, []sqldb.Value) bool {
			n++
			return true
		})
		sh.liveRows = n
	})

	// Node-id assignment: contiguous per table in RID order (the paper's
	// dense ids), via a prefix sum over the shard plan.
	g.tableStart = make([]NodeID, len(tables)+1)
	total := NodeID(0)
	ti := 0
	for i := range plan {
		for ti < plan[i].tbl { // tables between shards (none today, but safe)
			ti++
			g.tableStart[ti] = total
		}
		plan[i].base = total
		total += NodeID(plan[i].liveRows)
	}
	for ti < len(tables) {
		ti++
		g.tableStart[ti] = total
	}
	numNodes := int(total)
	g.tableOf = make([]int32, numNodes)
	g.ridOf = make([]sqldb.RID, numNodes)
	g.prestige = make([]float64, numNodes)
	g.nodeOf = make([][]NodeID, len(tables))
	for i, t := range tables {
		m := make([]NodeID, t.t.Cap())
		for r := range m {
			m[r] = NoNode
		}
		g.nodeOf[i] = m
	}

	// Pass B (parallel): fill the node maps. Each shard writes a disjoint
	// node-id range and a disjoint RID range of its table's map.
	par.Run(len(plan), shards, func(i int) {
		sh := &plan[i]
		tid := tables[sh.tbl].id
		m := g.nodeOf[sh.tbl]
		n := sh.base
		tables[sh.tbl].t.ScanRange(sh.lo, sh.hi, func(rid sqldb.RID, _ []sqldb.Value) bool {
			m[rid] = n
			g.tableOf[n] = tid
			g.ridOf[n] = rid
			n++
			return true
		})
	})

	// Per-table FK metadata, resolved once (serial: error paths live here).
	type fkInfo struct {
		col     int
		refTbl  int32
		ref     *sqldb.Table
		refType sqldb.Type
		w       float64
	}
	fksOf := make([][]fkInfo, len(tables))
	for i, t := range tables {
		schema := t.t.Schema()
		if len(schema.ForeignKeys) == 0 {
			continue
		}
		fks := make([]fkInfo, 0, len(schema.ForeignKeys))
		for _, fk := range schema.ForeignKeys {
			refID, ok := g.tableIDs[strings.ToLower(fk.RefTable)]
			if !ok {
				return nil, fmt.Errorf("graph: %s.%s references unknown table %s", schema.Name, fk.Column, fk.RefTable)
			}
			ref := db.Table(fk.RefTable)
			refCol := ref.Schema().Column(fk.RefColumn)
			if refCol == nil {
				return nil, fmt.Errorf("graph: %s.%s references missing column %s.%s", schema.Name, fk.Column, fk.RefTable, fk.RefColumn)
			}
			w := fk.Weight
			if w <= 0 {
				w = 1
			}
			fks = append(fks, fkInfo{
				col:     t.t.ColumnIndex(fk.Column),
				refTbl:  refID,
				ref:     ref,
				refType: refCol.Type,
				w:       w,
			})
		}
		fksOf[i] = fks
	}

	// Pass C (parallel): resolve FK links into per-shard lists. Only reads
	// shared state: node maps are complete after pass B, and PK lookups
	// are read-only.
	par.Run(len(plan), shards, func(i int) {
		sh := &plan[i]
		fks := fksOf[sh.tbl]
		if len(fks) == 0 {
			return
		}
		m := g.nodeOf[sh.tbl]
		tables[sh.tbl].t.ScanRange(sh.lo, sh.hi, func(rid sqldb.RID, row []sqldb.Value) bool {
			u := m[rid]
			for _, fk := range fks {
				v := row[fk.col]
				if v.IsNull() {
					continue
				}
				cv, err := v.Convert(fk.refType)
				if err != nil {
					continue
				}
				refRID := fk.ref.LookupPK([]sqldb.Value{cv})
				if refRID < 0 {
					continue // dangling reference: skip, the DB enforces FKs anyway
				}
				vNode := g.nodeOf[fk.refTbl][refRID]
				if vNode == u {
					continue // self-loop carries no proximity information
				}
				sh.links = append(sh.links, link{from: u, to: vNode, w: fk.w})
			}
			return true
		})
	})

	// Merge (serial, deterministic): concatenating shard link lists in
	// plan order reproduces the serial scan order exactly.
	nLinks := 0
	for i := range plan {
		nLinks += len(plan[i].links)
	}
	links := make([]link, 0, nLinks)
	for i := range plan {
		links = append(links, plan[i].links...)
	}
	for _, l := range links {
		g.prestige[l.to]++
	}

	if err := g.applyLayout(opts.LayoutOrder, links); err != nil {
		return nil, err
	}

	// inByTable[R][v] is IN_R(v), the links into v from tuples of R; it
	// is allocated only for relations that have foreign keys.
	inByTable := make([][]int32, len(tables))
	for _, l := range links {
		t := g.tableOf[l.from]
		if inByTable[t] == nil {
			inByTable[t] = make([]int32, numNodes)
		}
		inByTable[t][l.to]++
	}

	// Materialize arcs: each FK link (u->v) contributes the forward arc
	// u->v with weight s, and the backward arc v->u with weight
	// s * IN_{R(u)}(v) (§2.2); parallel arcs are merged to the minimum
	// weight per Equation 1.
	arcs := make([]arc, 0, 2*len(links))
	for _, l := range links {
		arcs = append(arcs, arc{from: l.from, to: l.to, w: l.w})
		bw := l.w
		if opts.ScaleBackEdges {
			bw = l.w * float64(inByTable[g.tableOf[l.from]][l.to])
		}
		arcs = append(arcs, arc{from: l.to, to: l.from, w: bw})
	}
	g.finish(arcs)

	if opts.PrestigeDamping > 0 && opts.PrestigeDamping < 1 {
		pairs := make([]pair, len(links))
		for i, l := range links {
			pairs[i] = pair{from: l.from, to: l.to}
		}
		g.applyPageRankPrestige(opts.PrestigeDamping, opts.PrestigeIters, pairs)
	}
	return g, nil
}

// applyLayout renumbers nodes within each table according to
// BuildOptions.LayoutOrder, rewriting every old-id-keyed structure the
// build has produced so far (node maps, RID/prestige arrays and the link
// list) before arcs are materialized. The permutation never crosses table
// boundaries, so tableStart and tableOf are untouched. Sorting by (degree
// desc, RID asc) is a total order — RIDs are unique within a table — so
// the result is deterministic at any shard count.
func (g *Graph) applyLayout(order string, links []link) error {
	switch order {
	case "", LayoutRID:
		return nil
	case LayoutDegree:
	default:
		return fmt.Errorf("graph: unknown layout order %q", order)
	}
	n := g.NumNodes()
	deg := make([]int32, n)
	for _, l := range links {
		deg[l.from]++
		deg[l.to]++
	}
	perm := make([]NodeID, n) // old id -> new id
	var idx []NodeID
	for t := 0; t+1 < len(g.tableStart); t++ {
		lo, hi := g.tableStart[t], g.tableStart[t+1]
		idx = idx[:0]
		for v := lo; v < hi; v++ {
			idx = append(idx, v)
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := idx[i], idx[j]
			if deg[a] != deg[b] {
				return deg[a] > deg[b]
			}
			return g.ridOf[a] < g.ridOf[b]
		})
		for i, old := range idx {
			perm[old] = lo + NodeID(i)
		}
	}
	rid := make([]sqldb.RID, n)
	prestige := make([]float64, n)
	for old := 0; old < n; old++ {
		nw := perm[old]
		rid[nw] = g.ridOf[old]
		prestige[nw] = g.prestige[old]
	}
	g.ridOf, g.prestige = rid, prestige
	for _, m := range g.nodeOf {
		for r, v := range m {
			if v != NoNode {
				m[r] = perm[v]
			}
		}
	}
	for i := range links {
		links[i].from = perm[links[i].from]
		links[i].to = perm[links[i].to]
	}
	return nil
}

type pair struct{ from, to NodeID }

// applyPageRankPrestige replaces raw indegree with a PageRank over the FK
// reference graph (links point from referencing to referenced tuple, so
// prestige flows toward referenced tuples, e.g. heavily cited papers).
// Scores are rescaled so the maximum matches the maximum raw indegree,
// keeping the §2.3 normalization meaningful.
func (g *Graph) applyPageRankPrestige(d float64, iters int, links []pair) {
	if iters <= 0 {
		iters = 20
	}
	n := g.NumNodes()
	if n == 0 {
		return
	}
	outDeg := make([]int32, n)
	for _, l := range links {
		outDeg[l.from]++
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - d) / float64(n)
		var leaked float64
		for i := range next {
			next[i] = base
		}
		for i, r := range rank {
			if outDeg[i] == 0 {
				leaked += d * r
			}
		}
		for _, l := range links {
			next[l.to] += d * rank[l.from] / float64(outDeg[l.from])
		}
		share := leaked / float64(n)
		for i := range next {
			next[i] += share
		}
		rank, next = next, rank
	}
	var maxRank, maxIn float64
	for i := range rank {
		if rank[i] > maxRank {
			maxRank = rank[i]
		}
		if g.prestige[i] > maxIn {
			maxIn = g.prestige[i]
		}
	}
	if maxRank == 0 {
		return
	}
	scale := maxIn / maxRank
	if scale == 0 {
		scale = 1 / maxRank
	}
	for i := range rank {
		g.prestige[i] = rank[i] * scale
	}
	g.maxNode = 0
	for _, p := range g.prestige {
		if p > g.maxNode {
			g.maxNode = p
		}
	}
}
