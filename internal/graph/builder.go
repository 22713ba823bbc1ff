package graph

import (
	"fmt"
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
	//
	// In an engine build (index.BuildEngine) Shards is the budget of the
	// whole build. Number uses all of it; then the index's token scan and
	// merge take Shards/2 workers beside Link, which keeps the rest. At 1
	// the two halves run one after the other on the calling goroutine.
	Shards int
}

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
	tbl    int       // table id: index into the build's table list
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
func planShards(tables []*sqldb.Table, shards int) []buildShard {
	var plan []buildShard
	for i, t := range tables {
		capRows := t.Cap()
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

// fkInfo is one foreign key of a table, resolved against the graph's
// table ids. Its position in the table's list is its position in the
// schema, which indexes sqldb.Table.Refs.
type fkInfo struct {
	colName string
	refTbl  int32
	w       float64
}

// resolveFKs resolves the foreign keys of t against the table ids of v:
// the graph a build's Number is making, or a Delta's base.
func resolveFKs(v View, t *sqldb.Table) ([]fkInfo, error) {
	schema := t.Schema()
	var fks []fkInfo
	for _, fk := range schema.ForeignKeys {
		refID := v.TableID(fk.RefTable)
		if refID < 0 {
			return nil, fmt.Errorf("graph: %s.%s references table %s unknown to the graph", schema.Name, fk.Column, fk.RefTable)
		}
		w := fk.Weight
		if w <= 0 {
			w = 1
		}
		fks = append(fks, fkInfo{colName: fk.Column, refTbl: refID, w: w})
	}
	return fks, nil
}

// Build constructs the data graph from a database snapshot under the
// database's read lock: Number, then Link. Construction is sharded over
// opts.Shards workers (GOMAXPROCS by default) and the result is
// byte-identical to a serial build.
func Build(db *sqldb.Database, opts *BuildOptions) (*Graph, error) {
	db.RLock()
	defer db.RUnlock()
	nb, err := Number(db, opts)
	if err != nil {
		return nil, err
	}
	return nb.Link(nil), nil
}

// Numbering is the first step of a build: every table has its id, every
// FK its target, and every live row its node, but no arc exists yet.
// It answers NumNodes, TableID and TableNodes as the finished graph will,
// which is all the keyword index's token scan needs, so that scan can
// run beside the second step (Link).
type Numbering struct {
	g       *Graph
	tables  []*sqldb.Table
	fksOf   [][]fkInfo
	plan    []buildShard
	workers int
	opts    BuildOptions
}

// Number runs the first step of a build over db: table ids and FK
// metadata (serial: every error path of a build lives here), then pass A
// counts live rows and pass B fills the node maps. The caller holds db's
// read lock until Link returns.
func Number(db *sqldb.Database, opts *BuildOptions) (*Numbering, error) {
	if opts == nil {
		opts = DefaultBuildOptions()
	}
	g := &Graph{tableIDs: make(map[string]int32)}
	nb := &Numbering{g: g, workers: par.Workers(opts.Shards), opts: *opts}
	names := db.TableNames()
	tables := make([]*sqldb.Table, 0, len(names))
	for _, name := range names {
		t := db.Table(name)
		if t == nil {
			return nil, fmt.Errorf("graph: table %s disappeared during build", name)
		}
		g.tableIDs[strings.ToLower(t.Name())] = int32(len(tables))
		g.tableNames = append(g.tableNames, t.Name())
		tables = append(tables, t)
	}
	nb.tables = tables

	nb.fksOf = make([][]fkInfo, len(tables))
	for i, t := range tables {
		var err error
		if nb.fksOf[i], err = resolveFKs(g, t); err != nil {
			return nil, err
		}
	}

	plan := planShards(tables, nb.workers)
	nb.plan = plan

	// Pass A (parallel): count live rows per shard, so node ids can be
	// assigned without scanning serially.
	par.Run(len(plan), nb.workers, func(i int) {
		sh := &plan[i]
		n := 0
		tables[sh.tbl].ScanRange(sh.lo, sh.hi, func(sqldb.RID, []sqldb.Value) bool {
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
		m := make([]NodeID, t.Cap())
		for r := range m {
			m[r] = NoNode
		}
		g.nodeOf[i] = m
	}

	// Pass B (parallel): fill the node maps. Each shard writes a disjoint
	// node-id range and a disjoint RID range of its table's map.
	par.Run(len(plan), nb.workers, func(i int) {
		sh := &plan[i]
		tid := int32(sh.tbl)
		m := g.nodeOf[sh.tbl]
		n := sh.base
		tables[sh.tbl].ScanRange(sh.lo, sh.hi, func(rid sqldb.RID, _ []sqldb.Value) bool {
			m[rid] = n
			g.tableOf[n] = tid
			g.ridOf[n] = rid
			n++
			return true
		})
	})
	return nb, nil
}

// NumNodes returns the node count of the graph being built.
func (nb *Numbering) NumNodes() int { return nb.g.NumNodes() }

// TableID returns the id for a table name (case-insensitive), or -1.
func (nb *Numbering) TableID(name string) int32 { return nb.g.TableID(name) }

// TableNodes returns table t's rid -> node map (NoNode for tombstones).
// Callers must not mutate it.
func (nb *Numbering) TableNodes(t int32) []NodeID { return nb.g.nodeOf[t] }

// Link runs the second step of a build and returns the finished graph.
// It writes no field that Numbering's accessors read, so beside, when
// non-nil, runs at the same time on its own goroutine with workers/2 of
// the build's workers while the step keeps the rest; with one worker
// beside runs after the step, on the calling goroutine. Link returns once
// both are done.
func (nb *Numbering) Link(beside func(workers int)) *Graph {
	if beside == nil {
		return nb.link(nb.workers)
	}
	if nb.workers < 2 {
		g := nb.link(1)
		beside(1)
		return g
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		beside(nb.workers / 2)
	}()
	g := nb.link(nb.workers - nb.workers/2)
	<-done
	return g
}

// link is the arc step: pass C resolves FK links, the merge lays them out
// in scan order, and the IN_R counts scale the backward arcs before
// finish fills the CSR.
func (nb *Numbering) link(workers int) *Graph {
	g, plan, tables := nb.g, nb.plan, nb.tables

	// Pass C (parallel): turn each live row's resolved FK targets
	// (sqldb.Table.Refs) into per-shard link lists. Only reads shared
	// state: node maps are complete after pass B. A shard's list is
	// presized to its live rows times its table's FKs, which no shard
	// exceeds.
	par.Run(len(plan), workers, func(i int) {
		sh := &plan[i]
		fks := nb.fksOf[sh.tbl]
		if len(fks) == 0 {
			return
		}
		m, t := g.nodeOf[sh.tbl], tables[sh.tbl]
		sh.links = make([]link, 0, sh.liveRows*len(fks))
		for rid := sh.lo; rid < sh.hi; rid++ {
			u := m[rid]
			if u == NoNode {
				continue
			}
			for k, fk := range fks {
				refRID := t.Refs(k)[rid]
				if refRID < 0 {
					continue // NULL: no link
				}
				vNode := g.nodeOf[fk.refTbl][refRID]
				if vNode == u {
					continue // self-loop carries no proximity information
				}
				sh.links = append(sh.links, link{from: u, to: vNode, w: fk.w})
			}
		}
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

	// inByTable[R][v] is IN_R(v), the links into v from tuples of R; it
	// is allocated only for relations that have foreign keys.
	numNodes := g.NumNodes()
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
		if nb.opts.ScaleBackEdges {
			bw = l.w * float64(inByTable[g.tableOf[l.from]][l.to])
		}
		arcs = append(arcs, arc{from: l.to, to: l.from, w: bw})
	}
	g.finish(arcs)

	if d := nb.opts.PrestigeDamping; d > 0 && d < 1 {
		pairs := make([]pair, len(links))
		for i, l := range links {
			pairs[i] = pair{from: l.from, to: l.to}
		}
		g.applyPageRankPrestige(d, nb.opts.PrestigeIters, pairs)
	}
	return g
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
