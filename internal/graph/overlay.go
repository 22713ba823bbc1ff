// Overlay composes an immutable base graph with an in-memory delta of live
// row mutations, serving the full View interface without a rebuild. The
// delta is maintained by re-deriving the affected region of the graph from
// the (already mutated) database, mirroring the builder's semantics exactly:
//
//   - The "core" of a mutation — the mutated row's node plus every FK target
//     it referenced before or references after — gets its out-edges,
//     in-edges and prestige recomputed in full from the database.
//   - With indegree-scaled backward edges (§2.2), a mutation to a row of
//     relation R changes IN_R(v) for each target v, which rescales the
//     backward arcs v->u of *every other* row u of R referencing v. Those
//     "ring" nodes need only the single in-edge entry for source v patched,
//     and its exact merged weight is read off v's freshly recomputed
//     out-edge list — no recursive expansion.
//
// Everything else in the graph is untouched, so an Apply costs a handful of
// reference lookups per mutation instead of the full SQL->graph build.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/banksdb/banks/internal/sqldb"
)

// RowOp is the kind of one row mutation.
type RowOp uint8

const (
	RowInsert RowOp = iota + 1
	RowUpdate
	RowDelete
)

func (op RowOp) String() string {
	switch op {
	case RowInsert:
		return "insert"
	case RowUpdate:
		return "update"
	case RowDelete:
		return "delete"
	}
	return fmt.Sprintf("RowOp(%d)", uint8(op))
}

// RowRef names one row.
type RowRef struct {
	Table string
	RID   sqldb.RID
}

// RowChange describes one already-applied database mutation for Delta.Apply.
// OldTargets must list the FK target rows the pre-mutation row version
// referenced (as Delta.Targets reports them: non-NULL, non-self); it is
// empty for inserts. The new targets are read from the database, which
// already holds the final row.
type RowChange struct {
	Op         RowOp
	Table      string
	RID        sqldb.RID
	OldTargets []RowRef
}

// nodeKey identifies a row by table id and RID.
type nodeKey struct {
	t   int32
	rid sqldb.RID
}

// Overlay is an immutable base-plus-delta graph view. Snapshots are cheap
// (map headers are copied, patch payloads are shared) and safe to read
// concurrently while the owning Delta keeps mutating.
type Overlay struct {
	base      View
	baseNodes int

	// Delta nodes (inserted rows) occupy ids [baseNodes, NumNodes) in
	// insertion order, which is RID order per table — the same relative
	// order a rebuild would give them, so metadata-match expansion visits
	// identical row sequences.
	dTable   []int32
	dRID     []sqldb.RID
	dByTable [][]NodeID
	dNodeOf  map[nodeKey]NodeID

	tomb map[NodeID]struct{} // deleted nodes: no arcs, no lookups, skipped by walks

	// Patches are full replacements, always freshly allocated, sorted the
	// way the builder sorts them (out by target, in by source).
	patchOut      map[NodeID][]Edge
	patchIn       map[NodeID][]Edge
	patchPrestige map[NodeID]float64

	numArcs int
	minEdge float64
	maxNode float64

	// keys is this snapshot's node-key table, built by the first Keys call.
	keys *overlayKeys
}

// overlayKeys holds an overlay's lazily built key table.
type overlayKeys struct {
	once sync.Once
	keys Keys
}

var _ View = (*Overlay)(nil)

// NumNodes returns the node-id space size, tombstones included.
func (o *Overlay) NumNodes() int { return o.baseNodes + len(o.dTable) }

// NumArcs returns the merged directed arc count.
func (o *Overlay) NumArcs() int { return o.numArcs }

// NumTables returns the relation count (fixed by the base).
func (o *Overlay) NumTables() int { return o.base.NumTables() }

// TableName returns the name of table id t.
func (o *Overlay) TableName(t int32) string { return o.base.TableName(t) }

// TableID returns the id for a table name, or -1.
func (o *Overlay) TableID(name string) int32 { return o.base.TableID(name) }

// TableOf returns the table id of node n.
func (o *Overlay) TableOf(n NodeID) int32 {
	if int(n) >= o.baseNodes {
		return o.dTable[int(n)-o.baseNodes]
	}
	return o.base.TableOf(n)
}

// TableNameOf returns the table name of node n.
func (o *Overlay) TableNameOf(n NodeID) string { return o.base.TableName(o.TableOf(n)) }

// RIDOf returns the row id of node n.
func (o *Overlay) RIDOf(n NodeID) sqldb.RID {
	if int(n) >= o.baseNodes {
		return o.dRID[int(n)-o.baseNodes]
	}
	return o.base.RIDOf(n)
}

// NodeOf returns the live node for (table, rid), or NoNode.
func (o *Overlay) NodeOf(table string, rid sqldb.RID) NodeID {
	t := o.base.TableID(table)
	if t < 0 {
		return NoNode
	}
	n := o.resolve(t, rid)
	if n == NoNode {
		return NoNode
	}
	if _, dead := o.tomb[n]; dead {
		return NoNode
	}
	return n
}

// resolve finds the node for (t, rid) including tombstoned ones.
func (o *Overlay) resolve(t int32, rid sqldb.RID) NodeID {
	if n, ok := o.dNodeOf[nodeKey{t, rid}]; ok {
		return n
	}
	return o.base.NodeOf(o.base.TableName(t), rid)
}

// EachTableNode visits the live nodes of table t in ascending id order:
// base nodes (RID order) first, then delta nodes (also RID order).
func (o *Overlay) EachTableNode(t int32, fn func(NodeID) bool) {
	stopped := false
	o.base.EachTableNode(t, func(n NodeID) bool {
		if _, dead := o.tomb[n]; dead {
			return true
		}
		if !fn(n) {
			stopped = true
			return false
		}
		return true
	})
	if stopped || int(t) >= len(o.dByTable) {
		return
	}
	for _, n := range o.dByTable[t] {
		if _, dead := o.tomb[n]; dead {
			continue
		}
		if !fn(n) {
			return
		}
	}
}

// Out returns the out-edges of n, sorted by target. Read-only.
func (o *Overlay) Out(n NodeID) []Edge {
	if e, ok := o.patchOut[n]; ok {
		return e
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.base.Out(n)
}

// In returns the in-edges of n, sorted by source. Read-only.
func (o *Overlay) In(n NodeID) []Edge {
	if e, ok := o.patchIn[n]; ok {
		return e
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.base.In(n)
}

// ArcWeight returns the weight of arc u->v, or -1 when absent.
func (o *Overlay) ArcWeight(u, v NodeID) float64 {
	out := o.Out(u)
	i := sort.Search(len(out), func(i int) bool { return out[i].To >= v })
	if i < len(out) && out[i].To == v {
		return out[i].W
	}
	return -1
}

// Prestige returns the node weight of n.
func (o *Overlay) Prestige(n NodeID) float64 {
	if p, ok := o.patchPrestige[n]; ok {
		return p
	}
	if int(n) >= o.baseNodes {
		return 0
	}
	return o.base.Prestige(n)
}

// MinEdgeWeight returns w_min over the composed graph.
func (o *Overlay) MinEdgeWeight() float64 { return o.minEdge }

// MaxNodeWeight returns w_max over the composed graph.
func (o *Overlay) MaxNodeWeight() float64 { return o.maxNode }

// MemoryFootprint estimates resident bytes: the base plus the delta's
// patches and node registry.
func (o *Overlay) MemoryFootprint() int64 {
	b := o.base.MemoryFootprint()
	b += int64(len(o.dTable)) * (4 + 8 + 4) // dTable + dRID + dByTable entry
	b += int64(len(o.dNodeOf)) * 16
	b += int64(len(o.tomb)) * 8
	for _, e := range o.patchOut {
		b += 8 + int64(len(e))*16
	}
	for _, e := range o.patchIn {
		b += 8 + int64(len(e))*16
	}
	b += int64(len(o.patchPrestige)) * 16
	return b
}

// LazyErr reports the base's first deferred-load failure.
func (o *Overlay) LazyErr() error { return o.base.LazyErr() }

// Keys returns the node-key table: the base's table, shared, plus keys for
// the appended nodes, built on the first call in O(appended nodes).
func (o *Overlay) Keys() Keys {
	o.keys.once.Do(func() {
		bk := o.base.Keys()
		app := make([]uint64, len(bk.app), len(bk.app)+len(o.dTable))
		copy(app, bk.app)
		for i, t := range o.dTable {
			app = append(app, Key(t, o.dRID[i]))
		}
		o.keys.keys = Keys{base: bk.base, app: app}
	})
	return o.keys.keys
}

// Base returns the view this overlay composes over.
func (o *Overlay) Base() View { return o.base }

// DeltaNodes returns how many nodes the delta added (tombstoned or not).
func (o *Overlay) DeltaNodes() int { return len(o.dTable) }

// Tombstones returns how many nodes the delta removed.
func (o *Overlay) Tombstones() int { return len(o.tomb) }

// Delta accumulates live row mutations over an immutable base graph. It is
// not safe for concurrent use; the owning system serializes Apply/Snapshot.
// Published Snapshots stay valid and immutable across later Applies.
type Delta struct {
	db    *sqldb.Database
	scale bool // BuildOptions.ScaleBackEdges of the base

	cur Overlay

	fks      [][]fkInfo
	fksBuilt bool

	// Aggregate multisets back the w_min / w_max normalizers under
	// removal: weightCount holds every merged arc weight (counted once per
	// arc, i.e. over out-edge lists), prestigeCount every live node's
	// prestige. Seeded from the base on first Apply (one O(N+E) sweep).
	weightCount   map[float64]int
	prestigeCount map[float64]int
	seeded        bool

	pending int
	err     error // sticky: a failed Apply leaves the delta unusable

	refsMemo map[nodeKey][]sqldb.Reference // per-Apply Referencing cache
}

// NewDelta prepares a mutation delta over base, which must have been built
// from db's current contents with ScaleBackEdges=scaleBackEdges and without
// prestige damping (damped prestige is global and cannot be patched
// incrementally; callers must rebuild instead).
func NewDelta(base View, db *sqldb.Database, scaleBackEdges bool) *Delta {
	d := &Delta{
		db:            db,
		scale:         scaleBackEdges,
		weightCount:   make(map[float64]int),
		prestigeCount: make(map[float64]int),
	}
	d.cur = Overlay{
		base:          base,
		baseNodes:     base.NumNodes(),
		dByTable:      make([][]NodeID, base.NumTables()),
		dNodeOf:       make(map[nodeKey]NodeID),
		tomb:          make(map[NodeID]struct{}),
		patchOut:      make(map[NodeID][]Edge),
		patchIn:       make(map[NodeID][]Edge),
		patchPrestige: make(map[NodeID]float64),
		numArcs:       base.NumArcs(),
		minEdge:       base.MinEdgeWeight(),
		maxNode:       base.MaxNodeWeight(),
	}
	return d
}

// Pending returns how many row changes have been applied since NewDelta.
func (d *Delta) Pending() int { return d.pending }

// Err returns the sticky failure state, or nil.
func (d *Delta) Err() error { return d.err }

// Snapshot publishes the current state as an immutable Overlay. The maps
// are copied (payload slices are shared; Apply never mutates a published
// slice in place), so the snapshot is safe for concurrent readers.
func (d *Delta) Snapshot() *Overlay {
	o := d.cur
	o.dTable = d.cur.dTable[:len(d.cur.dTable):len(d.cur.dTable)]
	o.dRID = d.cur.dRID[:len(d.cur.dRID):len(d.cur.dRID)]
	o.dByTable = make([][]NodeID, len(d.cur.dByTable))
	for i, s := range d.cur.dByTable {
		o.dByTable[i] = s[:len(s):len(s)]
	}
	o.dNodeOf = make(map[nodeKey]NodeID, len(d.cur.dNodeOf))
	for k, v := range d.cur.dNodeOf {
		o.dNodeOf[k] = v
	}
	o.tomb = make(map[NodeID]struct{}, len(d.cur.tomb))
	for k := range d.cur.tomb {
		o.tomb[k] = struct{}{}
	}
	o.patchOut = make(map[NodeID][]Edge, len(d.cur.patchOut))
	for k, v := range d.cur.patchOut {
		o.patchOut[k] = v
	}
	o.patchIn = make(map[NodeID][]Edge, len(d.cur.patchIn))
	for k, v := range d.cur.patchIn {
		o.patchIn[k] = v
	}
	o.patchPrestige = make(map[NodeID]float64, len(d.cur.patchPrestige))
	for k, v := range d.cur.patchPrestige {
		o.patchPrestige[k] = v
	}
	o.keys = new(overlayKeys)
	return &o
}

// Apply folds a batch of already-applied database mutations into the delta.
// The database must already hold the final state of every changed row, and
// the caller must not mutate it concurrently. Validation errors (unknown
// table, unknown row) are returned before any state changes; errors past
// validation indicate the delta no longer matches the database and are
// sticky — the caller must rebuild.
func (d *Delta) Apply(changes []RowChange) error {
	if d.err != nil {
		return d.err
	}
	if len(changes) == 0 {
		return nil
	}
	if err := d.ensureFKs(); err != nil {
		return err
	}

	// Validation pass: resolve every table and row before touching state.
	// willAdd simulates in-batch inserts so later changes can address them.
	willAdd := make(map[nodeKey]bool)
	for i := range changes {
		ch := &changes[i]
		t := d.cur.base.TableID(ch.Table)
		if t < 0 {
			return fmt.Errorf("graph: table %s is not in the base graph; a rebuild is required", ch.Table)
		}
		key := nodeKey{t, ch.RID}
		switch ch.Op {
		case RowInsert:
			if willAdd[key] || d.liveNode(t, ch.RID) != NoNode {
				return fmt.Errorf("graph: insert of %s rid %d: row already tracked", ch.Table, ch.RID)
			}
			willAdd[key] = true
		case RowUpdate, RowDelete:
			if !willAdd[key] && d.liveNode(t, ch.RID) == NoNode {
				return fmt.Errorf("graph: %s of %s rid %d: row not tracked", ch.Op, ch.Table, ch.RID)
			}
			if ch.Op == RowDelete {
				delete(willAdd, key)
			}
		default:
			return fmt.Errorf("graph: unknown row op %d", ch.Op)
		}
		for _, ref := range ch.OldTargets {
			if d.cur.base.TableID(ref.Table) < 0 {
				return fmt.Errorf("graph: old target table %s is not in the base graph", ref.Table)
			}
		}
	}

	d.seedAggregates()
	d.refsMemo = make(map[nodeKey][]sqldb.Reference)
	defer func() { d.refsMemo = nil }()

	// Registration pass: create delta nodes for inserts and tombstone
	// deletes, for the whole batch, before any target resolution. A batch
	// may legally order an insert that (in the final database state)
	// references another of the batch's inserts before that insert — the
	// per-row net batches Compact's tail fold produces do this routinely —
	// so every row must be registered before any row's targets resolve.
	deletedInBatch := make(map[nodeKey]bool)
	for i := range changes {
		if changes[i].Op == RowDelete {
			deletedInBatch[nodeKey{d.cur.base.TableID(changes[i].Table), changes[i].RID}] = true
		}
	}
	nodes := make([]NodeID, len(changes))
	for i := range changes {
		ch := &changes[i]
		t := d.cur.base.TableID(ch.Table)
		switch ch.Op {
		case RowInsert:
			nodes[i] = d.addNode(t, ch.RID)
		case RowUpdate, RowDelete:
			nodes[i] = d.node(t, ch.RID)
			if ch.Op == RowDelete {
				d.cur.tomb[nodes[i]] = struct{}{}
			}
		}
	}

	// Resolution pass: collect the core set plus, per target, the set of
	// relations whose IN contribution changed (the ring seeds). Rows
	// deleted in the same batch are already gone from the database, so
	// their inserts and updates skip new-target resolution — the delete's
	// OldTargets (captured pre-delete) names those targets instead.
	core := make(map[NodeID]struct{})
	ringSrc := make(map[NodeID]map[int32]struct{})
	mark := func(v NodeID, fromTable int32) {
		core[v] = struct{}{}
		m := ringSrc[v]
		if m == nil {
			m = make(map[int32]struct{})
			ringSrc[v] = m
		}
		m[fromTable] = struct{}{}
	}
	for i := range changes {
		ch := &changes[i]
		t := d.cur.base.TableID(ch.Table)
		n := nodes[i]
		core[n] = struct{}{}
		for _, ref := range ch.OldTargets {
			rt := d.cur.base.TableID(ref.Table)
			v := d.node(rt, ref.RID)
			if v == NoNode {
				return d.fail(fmt.Errorf("graph: old target %s rid %d has no node", ref.Table, ref.RID))
			}
			if v != n {
				mark(v, t)
			}
		}
		if ch.Op != RowDelete && !deletedInBatch[nodeKey{t, ch.RID}] {
			vs, err := d.targetsOf(t, ch.RID, n)
			if err != nil {
				return d.fail(err)
			}
			for _, v := range vs {
				mark(v, t)
			}
		}
	}

	// Core pass: full recompute of every affected node from the database.
	coreList := make([]NodeID, 0, len(core))
	for n := range core {
		coreList = append(coreList, n)
	}
	sort.Slice(coreList, func(i, j int) bool { return coreList[i] < coreList[j] })
	for _, n := range coreList {
		out, in, prestige, err := d.recompute(n)
		if err != nil {
			return d.fail(err)
		}
		d.patchNode(n, out, in, prestige)
	}

	// Ring pass: rescaled backward arcs v->u land in the in-edge lists of
	// untouched referencing rows; patch just that entry. Without indegree
	// scaling backward weights do not depend on IN, so there is no ring.
	if d.scale {
		ringList := make([]NodeID, 0, len(ringSrc))
		for v := range ringSrc {
			ringList = append(ringList, v)
		}
		sort.Slice(ringList, func(i, j int) bool { return ringList[i] < ringList[j] })
		for _, v := range ringList {
			if _, dead := d.cur.tomb[v]; dead {
				continue
			}
			tables := ringSrc[v]
			for _, ref := range d.refs(d.cur.TableOf(v), d.cur.RIDOf(v)) {
				rt := d.cur.base.TableID(ref.Table)
				if _, changed := tables[rt]; !changed {
					continue
				}
				for _, rid := range ref.RIDs {
					u := d.liveNode(rt, rid)
					if u == NoNode || u == v {
						continue
					}
					if _, isCore := core[u]; isCore {
						continue
					}
					if err := d.patchRingIn(u, v); err != nil {
						return d.fail(err)
					}
				}
			}
		}
	}

	d.refreshNormalizers()
	d.pending += len(changes)
	return nil
}

func (d *Delta) fail(err error) error {
	d.err = err
	return err
}

// node resolves (t, rid) to a node, tombstoned or not.
func (d *Delta) node(t int32, rid sqldb.RID) NodeID {
	return d.cur.resolve(t, rid)
}

// liveNode resolves (t, rid) to a non-tombstoned node, or NoNode.
func (d *Delta) liveNode(t int32, rid sqldb.RID) NodeID {
	n := d.cur.resolve(t, rid)
	if n == NoNode {
		return NoNode
	}
	if _, dead := d.cur.tomb[n]; dead {
		return NoNode
	}
	return n
}

// addNode registers a fresh delta node for (t, rid).
func (d *Delta) addNode(t int32, rid sqldb.RID) NodeID {
	n := NodeID(d.cur.baseNodes + len(d.cur.dTable))
	d.cur.dTable = append(d.cur.dTable, t)
	d.cur.dRID = append(d.cur.dRID, rid)
	d.cur.dByTable[t] = append(d.cur.dByTable[t], n)
	d.cur.dNodeOf[nodeKey{t, rid}] = n
	d.prestigeCount[0]++ // live with no references yet; patched next
	return n
}

// ensureFKs resolves every table's FK metadata against the base graph once.
func (d *Delta) ensureFKs() error {
	if d.fksBuilt {
		return nil
	}
	nt := d.cur.base.NumTables()
	fks := make([][]fkInfo, nt)
	for t := int32(0); t < int32(nt); t++ {
		name := d.cur.base.TableName(t)
		tbl := d.db.Table(name)
		if tbl == nil {
			return fmt.Errorf("graph: table %s is in the base graph but not the database; a rebuild is required", name)
		}
		var err error
		if fks[t], err = resolveFKs(d.cur.base, tbl); err != nil {
			return fmt.Errorf("%w; a rebuild is required", err)
		}
	}
	d.fks = fks
	d.fksBuilt = true
	return nil
}

// refs returns db.Referencing for (t, rid), memoized for the current Apply.
func (d *Delta) refs(t int32, rid sqldb.RID) []sqldb.Reference {
	key := nodeKey{t, rid}
	if rs, ok := d.refsMemo[key]; ok {
		return rs
	}
	rs := d.db.Referencing(d.cur.base.TableName(t), rid)
	d.refsMemo[key] = rs
	return rs
}

// fkWeight returns the edge weight of the FK (table t, column col).
func (d *Delta) fkWeight(t int32, col string) (float64, error) {
	for _, fk := range d.fks[t] {
		if strings.EqualFold(fk.colName, col) {
			return fk.w, nil
		}
	}
	return 0, fmt.Errorf("graph: no foreign key on %s.%s", d.cur.base.TableName(t), col)
}

// Targets returns the FK target rows the database's current version of
// (table, rid) references (sqldb.Table.Refs), with the builder's link
// semantics (NULL and self references are skipped). Callers capture a
// row's targets with this before mutating it, then pass the result as
// RowChange.OldTargets.
func (d *Delta) Targets(table string, rid sqldb.RID) ([]RowRef, error) {
	if err := d.ensureFKs(); err != nil {
		return nil, err
	}
	t := d.cur.base.TableID(table)
	if t < 0 {
		return nil, fmt.Errorf("graph: table %s is not in the base graph; a rebuild is required", table)
	}
	fks := d.fks[t]
	if len(fks) == 0 {
		return nil, nil
	}
	tbl := d.db.Table(d.cur.base.TableName(t))
	if !tbl.Live(rid) {
		return nil, fmt.Errorf("graph: no row %s rid %d", table, rid)
	}
	var out []RowRef
	for k, fk := range fks {
		refRID := tbl.Refs(k)[rid]
		if refRID < 0 || fk.refTbl == t && refRID == rid {
			continue // NULL or self reference: no link
		}
		out = append(out, RowRef{Table: d.cur.base.TableName(fk.refTbl), RID: refRID})
	}
	return out, nil
}

// outLink is one resolved FK link n->v with similarity w.
type outLink struct {
	v NodeID
	w float64
}

// inLink is one resolved FK link u->n with similarity w, from table t.
type inLink struct {
	u NodeID
	w float64
	t int32
}

// targetsOf resolves the FK target nodes of the current row (t, rid),
// excluding self, exactly as the builder's pass C does.
func (d *Delta) targetsOf(t int32, rid sqldb.RID, self NodeID) ([]NodeID, error) {
	links, err := d.linksOut(t, rid, self)
	if err != nil {
		return nil, err
	}
	vs := make([]NodeID, 0, len(links))
	for _, l := range links {
		vs = append(vs, l.v)
	}
	return vs, nil
}

// linksOut returns the row's outgoing FK links in the final database
// state. NULL and self references are skipped, matching the builder.
func (d *Delta) linksOut(t int32, rid sqldb.RID, self NodeID) ([]outLink, error) {
	fks := d.fks[t]
	if len(fks) == 0 {
		return nil, nil
	}
	tbl := d.db.Table(d.cur.base.TableName(t))
	if !tbl.Live(rid) {
		return nil, fmt.Errorf("graph: row %s rid %d vanished from the database", d.cur.base.TableName(t), rid)
	}
	var out []outLink
	for k, fk := range fks {
		refRID := tbl.Refs(k)[rid]
		if refRID < 0 {
			continue
		}
		vn := d.liveNode(fk.refTbl, refRID)
		if vn == NoNode {
			return nil, fmt.Errorf("graph: %s rid %d references untracked row %s rid %d", d.cur.base.TableName(t), rid, d.cur.base.TableName(fk.refTbl), refRID)
		}
		if vn == self {
			continue
		}
		out = append(out, outLink{v: vn, w: fk.w})
	}
	return out, nil
}

// linksIn resolves the links into node n from the final database state via
// db.Referencing, excluding self references.
func (d *Delta) linksIn(t int32, rid sqldb.RID, self NodeID) ([]inLink, error) {
	var in []inLink
	for _, ref := range d.refs(t, rid) {
		rt := d.cur.base.TableID(ref.Table)
		if rt < 0 {
			return nil, fmt.Errorf("graph: referencing table %s is not in the base graph; a rebuild is required", ref.Table)
		}
		w, err := d.fkWeight(rt, ref.Column)
		if err != nil {
			return nil, err
		}
		for _, urid := range ref.RIDs {
			u := d.liveNode(rt, urid)
			if u == NoNode {
				return nil, fmt.Errorf("graph: untracked row %s rid %d references %s rid %d", ref.Table, urid, d.cur.base.TableName(t), rid)
			}
			if u == self {
				continue
			}
			in = append(in, inLink{u: u, w: w, t: rt})
		}
	}
	return in, nil
}

// countLinksFrom returns IN_{from}(target): how many FK links arrive at
// target from rows of relation `from`, excluding target's own row.
func (d *Delta) countLinksFrom(from int32, target NodeID) int {
	tt := d.cur.TableOf(target)
	trid := d.cur.RIDOf(target)
	cnt := 0
	for _, ref := range d.refs(tt, trid) {
		if d.cur.base.TableID(ref.Table) != from {
			continue
		}
		for _, rid := range ref.RIDs {
			if from == tt && rid == trid {
				continue // self link carries no arc
			}
			cnt++
		}
	}
	return cnt
}

// recompute derives node n's merged out-edges, in-edges and prestige from
// the database, with exactly the builder's semantics. Tombstoned nodes get
// empty adjacency and zero prestige.
func (d *Delta) recompute(n NodeID) (out, in []Edge, prestige float64, err error) {
	if _, dead := d.cur.tomb[n]; dead {
		return nil, nil, 0, nil
	}
	t := d.cur.TableOf(n)
	rid := d.cur.RIDOf(n)
	lo, err := d.linksOut(t, rid, n)
	if err != nil {
		return nil, nil, 0, err
	}
	li, err := d.linksIn(t, rid, n)
	if err != nil {
		return nil, nil, 0, err
	}
	prestige = float64(len(li))

	// Out: forward arcs n->v per FK link, plus backward arcs n->u per link
	// u->n, scaled by IN_{R(u)}(n) (computable from li itself).
	var inBy map[int32]int
	if d.scale && len(li) > 0 {
		inBy = make(map[int32]int)
		for _, l := range li {
			inBy[l.t]++
		}
	}
	arcs := make([]Edge, 0, len(lo)+len(li))
	for _, l := range lo {
		arcs = append(arcs, Edge{To: l.v, W: l.w})
	}
	for _, l := range li {
		w := l.w
		if d.scale {
			w *= float64(inBy[l.t])
		}
		arcs = append(arcs, Edge{To: l.u, W: w})
	}
	out = mergeEdges(arcs)

	// In: forward arcs u->n per link u->n, plus backward arcs v->n per link
	// n->v, scaled by IN_{R(n)}(v) (a Referencing sweep of each target).
	arcs = make([]Edge, 0, len(lo)+len(li))
	for _, l := range li {
		arcs = append(arcs, Edge{To: l.u, W: l.w})
	}
	for _, l := range lo {
		w := l.w
		if d.scale {
			w *= float64(d.countLinksFrom(t, l.v))
		}
		arcs = append(arcs, Edge{To: l.v, W: w})
	}
	in = mergeEdges(arcs)
	return out, in, prestige, nil
}

// mergeEdges sorts by target and keeps the minimum weight per target
// (Equation 1 of the paper), mirroring the builder's arc merge.
func mergeEdges(arcs []Edge) []Edge {
	if len(arcs) == 0 {
		return nil
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].To != arcs[j].To {
			return arcs[i].To < arcs[j].To
		}
		return arcs[i].W < arcs[j].W
	})
	out := arcs[:0]
	for _, a := range arcs {
		if n := len(out); n > 0 && out[n-1].To == a.To {
			continue
		}
		out = append(out, a)
	}
	return out
}

// patchNode installs freshly recomputed adjacency for n, updating the arc
// count and the normalizer multisets from the diff against n's current
// (pre-patch) state.
func (d *Delta) patchNode(n NodeID, out, in []Edge, prestige float64) {
	old := d.cur.Out(n)
	for _, e := range old {
		d.dropWeight(e.W)
	}
	for _, e := range out {
		d.weightCount[e.W]++
	}
	d.cur.numArcs += len(out) - len(old)

	oldP := d.cur.Prestige(n)
	d.dropPrestige(oldP)
	if _, dead := d.cur.tomb[n]; !dead {
		d.prestigeCount[prestige]++
	}

	d.cur.patchOut[n] = out
	d.cur.patchIn[n] = in
	d.cur.patchPrestige[n] = prestige
}

// patchRingIn updates the single in-edge entry (source v) of ring node u to
// the merged weight of arc v->u, read from v's freshly recomputed out-edge
// list. An unexpected shape (no such arc or entry) falls back to a full
// recompute of u — correct regardless of how the mismatch arose.
func (d *Delta) patchRingIn(u, v NodeID) error {
	vOut := d.cur.Out(v)
	i := sort.Search(len(vOut), func(i int) bool { return vOut[i].To >= u })
	in := d.cur.In(u)
	j := sort.Search(len(in), func(j int) bool { return in[j].To >= v })
	if i >= len(vOut) || vOut[i].To != u || j >= len(in) || in[j].To != v {
		out, inFull, prestige, err := d.recompute(u)
		if err != nil {
			return err
		}
		d.patchNode(u, out, inFull, prestige)
		return nil
	}
	if in[j].W == vOut[i].W {
		return nil
	}
	cp := append([]Edge(nil), in...)
	cp[j].W = vOut[i].W
	d.cur.patchIn[u] = cp
	return nil
}

func (d *Delta) dropWeight(w float64) {
	if c := d.weightCount[w] - 1; c > 0 {
		d.weightCount[w] = c
	} else {
		delete(d.weightCount, w)
	}
}

func (d *Delta) dropPrestige(p float64) {
	if c := d.prestigeCount[p] - 1; c > 0 {
		d.prestigeCount[p] = c
	} else {
		delete(d.prestigeCount, p)
	}
}

// seedAggregates fills the normalizer multisets from the base: one sweep
// over every live node's out-edges and prestige. Runs once per Delta; on a
// store-opened base this faults the adjacency segments in.
func (d *Delta) seedAggregates() {
	if d.seeded {
		return
	}
	d.seeded = true
	base := d.cur.base
	for t := int32(0); t < int32(base.NumTables()); t++ {
		base.EachTableNode(t, func(n NodeID) bool {
			for _, e := range base.Out(n) {
				d.weightCount[e.W]++
			}
			d.prestigeCount[base.Prestige(n)]++
			return true
		})
	}
}

// refreshNormalizers recomputes w_min / w_max from the multisets; the key
// spaces (distinct arc weights, distinct prestige values) are small.
func (d *Delta) refreshNormalizers() {
	minEdge := 0.0
	for w := range d.weightCount {
		if minEdge == 0 || w < minEdge {
			minEdge = w
		}
	}
	if minEdge == 0 {
		minEdge = 1 // no arcs: the builder's convention
	}
	maxNode := 0.0
	for p := range d.prestigeCount {
		if p > maxNode {
			maxNode = p
		}
	}
	d.cur.minEdge = minEdge
	d.cur.maxNode = maxNode
}
