package banks

// Live mutations: System.Apply writes row-level changes to the database,
// journals them to a write-ahead log and folds them into delta overlays
// over the immutable engine — graph.Delta patches the affected nodes'
// edges and prestige, index.Delta diffs the affected rows' token sets —
// then publishes a new engine snapshot (base + delta views) through the
// same atomic pointer a rebuild uses. Queries in flight keep the snapshot
// they pinned; queries that begin after Apply returns see the mutated
// rows. The whole path costs milliseconds where a rebuild pays the full
// SQL→graph→index build.
//
// Durability pairs the WAL with the segmented store: the store records
// the last folded WAL sequence, Compact persists the folded engine and
// truncates the journal, and OpenSystem replays only the tail beyond the
// store's sequence — so a crash between Apply and Compact loses nothing.
//
// Apply is all-or-nothing against the database. A batch goes through
// sqldb's own writes under an undo log (sqldb.Undo), so the database's
// NOT NULL, key, foreign-key and restrict rules are the only checks, and
// each write holds the database lock for itself alone. The database is
// written first and the journal second; a rejection by either rolls the
// batch back, leaving nothing written.
//
// One number says whether the engine is in step with its database: the
// database's write counter (sqldb.Database.Writes) against System.synced,
// its value as of the serving engine. Apply adds each accepted batch's
// writes to synced; any other write — a Database.Exec, a refused
// rollback, a journaled batch the graph delta rejects — leaves synced
// behind, Apply returns ErrStale, and Compact rebuilds from the database.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
	"github.com/banksdb/banks/internal/wal"
)

// ErrClosed is returned by queries and mutations that begin after Close.
var ErrClosed = errors.New("banks: system is closed")

// ErrStale is returned by Apply, before it writes or journals anything,
// when the database holds writes the engine does not.
var ErrStale = errors.New("banks: the database changed outside Apply; Compact resynchronizes")

// MutationOp is the kind of one row-level change.
type MutationOp int

const (
	MutationInsert MutationOp = iota + 1
	MutationUpdate
	MutationDelete
)

// String returns "insert", "update" or "delete".
func (op MutationOp) String() string {
	switch op {
	case MutationInsert:
		return "insert"
	case MutationUpdate:
		return "update"
	case MutationDelete:
		return "delete"
	}
	return fmt.Sprintf("MutationOp(%d)", int(op))
}

// Mutation is one row-level change for System.Apply. Rows are addressed
// by their rid (the stable row identity exposed across the API, e.g. by
// Answer nodes); Set carries column values using the same Go types Exec
// accepts for placeholders (nil, integers, floats, bools, strings,
// time.Time).
type Mutation struct {
	Op    MutationOp
	Table string
	// RID addresses the row for update and delete; it must be zero for
	// insert (the database assigns the rid — Apply returns it).
	RID int64
	// Set gives the column values: all provided columns for insert
	// (omitted columns are NULL), the columns to change for update. It
	// must be empty for delete.
	Set map[string]interface{}
}

// Insert returns an insert Mutation for table with the given columns.
func Insert(table string, set map[string]interface{}) Mutation {
	return Mutation{Op: MutationInsert, Table: table, Set: set}
}

// Update returns an update Mutation for the row at rid.
func Update(table string, rid int64, set map[string]interface{}) Mutation {
	return Mutation{Op: MutationUpdate, Table: table, RID: rid, Set: set}
}

// Delete returns a delete Mutation for the row at rid.
func Delete(table string, rid int64) Mutation {
	return Mutation{Op: MutationDelete, Table: table, RID: rid}
}

// ApplyResult reports one applied batch.
type ApplyResult struct {
	// Seq is the WAL sequence number the batch was journaled under.
	Seq uint64
	// RIDs has one entry per mutation: the database-assigned rid for
	// inserts, the addressed rid echoed back otherwise.
	RIDs []int64
}

// Apply writes the batch to the database, journals it to the write-ahead
// log, folds it into the live graph and index deltas, and atomically
// publishes a new engine snapshot containing the changes — all without a
// rebuild. It requires SystemOptions.WALPath. The batch is applied in
// order and all or nothing: when the database rejects a mutation (an
// unknown row or column, a NOT NULL, duplicate key, dangling or
// restricted foreign key) or the journal rejects the batch, the batch's
// writes are rolled back and the error returned, and the next insert
// gets the rid it would have got. Intra-batch dependencies hold as in the
// database: insert a paper, then a citation to it; delete the citations,
// then the paper.
//
// Mutations cover row changes within the known schema. Schema changes —
// new tables, new foreign keys — and bulk loads are made on the Database;
// Apply then returns ErrStale until Compact rebuilds from it.
func (s *System) Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return nil, errors.New("banks: empty mutation batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.wal == nil {
		return nil, errors.New("banks: live mutations require SystemOptions.WALPath")
	}
	s.db.folding.Lock()
	defer s.db.folding.Unlock()
	if s.db.inner.Writes() != s.synced {
		return nil, ErrStale
	}
	wmuts, err := s.resolveMutations(muts)
	if err != nil {
		return nil, err
	}
	seq, rids, touched, err := s.applyResolved(wmuts, 0)
	if err != nil {
		return nil, err
	}
	s.appliedSeq = seq
	s.publishLocked(seq, touched)
	return &ApplyResult{Seq: seq, RIDs: rids}, nil
}

// Compact folds the accumulated live mutations back into concrete graph
// and index structures, persists the compacted engine when StorePath is
// set — recording the folded WAL sequence and truncating the journal —
// and swaps the concrete snapshot in. Queries before, during and after
// compaction see identical results; what changes is that the per-query
// overlay indirection and the journal tail are gone. Without a WAL, or
// when the database holds writes the engine does not (see ErrStale), it
// rebuilds from the database instead, as NewSystem does.
//
// Compact does not block Apply for the duration of the fold: it
// snapshots the overlay, materializes and persists the compacted base
// off to the side, and takes the writer lock only to fold the batches
// that arrived during the build onto the fresh base and swap — so a
// concurrent Apply stalls for the final fold+swap, not the rebuild.
// Concurrent Compacts serialize.
func (s *System) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1 (brief lock): snapshot the overlay at a fixed sequence and
	// start logging the first-touch state of every row Apply touches from
	// here on, so the tail can be folded as net per-row changes later.
	s.mu.Lock()
	if s.closed.Load() || s.wal == nil || s.db.inner.Writes() != s.synced {
		// Closed (the rebuild returns ErrClosed), no live overlay to fold
		// aside (plain systems), or the database is ahead of the deltas:
		// the blocking rebuild from the database is the only correct path.
		defer s.mu.Unlock()
		return s.rebuildLocked()
	}
	gView := s.gd.Snapshot()
	ixView := s.id.Snapshot(gView.NumNodes())
	s0 := s.appliedSeq
	warm := s.eng.Load().cache.HotKeys(warmKeyLimit)
	s.tail = newRowLog()
	s.mu.Unlock()

	dropTail := func() {
		s.mu.Lock()
		s.tail = nil
		s.mu.Unlock()
	}

	// Phase 2 (no lock): fold the immutable overlay snapshot into
	// concrete structures and persist them beside the live store. Apply
	// keeps publishing against the old base meanwhile.
	g1, remap := graph.Materialize(gView)
	ix1, err := index.Materialize(ixView, remap, g1.NumNodes())
	if err != nil {
		dropTail()
		return err
	}
	tmpStore := ""
	if s.opts.StorePath != "" {
		tmpStore = s.opts.StorePath + ".compact"
		se := store.Engine{Graph: g1, Index: ix1, WarmKeys: warm, WALSeq: s0}
		if err := store.WriteFile(tmpStore, se); err != nil {
			dropTail()
			return fmt.Errorf("banks: persisting compacted engine: %w", err)
		}
	}

	if s.compactHook != nil {
		s.compactHook()
	}

	// Phase 3 (lock): replay the tail onto the fresh base and swap.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.folding.Lock()
	defer s.db.folding.Unlock()
	tail := s.tail
	s.tail = nil
	discard := func() {
		if tmpStore != "" {
			os.Remove(tmpStore)
		}
	}
	gd1 := graph.NewDelta(g1, s.db.inner, !s.opts.DisableBackEdgeScaling)
	id1 := index.NewDelta(ix1)
	if s.closed.Load() || s.db.inner.Writes() != s.synced || s.foldTail(tail, g1, gd1, id1) != nil {
		// Closed, a write the tail log did not see landed during the
		// build, or the tail does not fold: rebuild from the database.
		discard()
		return s.rebuildLocked()
	}
	if tmpStore != "" {
		// RenameSync makes the install durable before the WAL truncate
		// below can drop the batches the new store folded in.
		if err := store.RenameSync(tmpStore, s.opts.StorePath); err != nil {
			discard()
			return fmt.Errorf("banks: installing compacted store: %w", err)
		}
	}
	s.gd, s.id = gd1, id1

	prev := s.eng.Load()
	var eng *engine
	tailEmpty := len(tail.rows) == 0
	carry := tailEmpty && gView.DeltaNodes() == 0 && gView.Tombstones() == 0
	switch {
	case carry:
		// The compacted base keeps the exact node numbering the serving
		// snapshot reads (identity remap, no tail), so the match cache
		// carries over whole.
		eng = newEngineFrom(prev, g1, ix1, s.opts, nil)
		s.warmPublishes.Add(1)
	case tailEmpty:
		eng = newEngine(g1, ix1, s.opts)
	default:
		gSnap := gd1.Snapshot()
		eng = newEngine(gSnap, id1.Snapshot(gSnap.NumNodes()), s.opts)
	}
	if !carry && eng.cache != nil && len(warm) > 0 {
		// Fresh cache (numbering changed): rewarm the old snapshot's hot
		// terms asynchronously against the new index view.
		go eng.cache.Warm(eng.ix, eng.epoch, warm)
	}
	eng.walSeq = s.appliedSeq
	s.eng.Store(eng)

	if s.opts.StorePath != "" && tailEmpty {
		// The persisted store records the folded sequence, so the journal
		// is redundant. With a non-empty tail the records beyond s0 are
		// still the only durable copy of those batches — the WAL keeps
		// them (Truncate drops the whole journal, not a prefix), and
		// recovery replays only past the store's sequence.
		if err := s.wal.Truncate(); err != nil {
			return fmt.Errorf("banks: truncating WAL after compaction: %w", err)
		}
	}
	return nil
}

// PendingMutations reports how many row mutations have been folded into
// the live deltas since the last compaction; 0 for systems without
// WALPath (or right after Compact).
func (s *System) PendingMutations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gd == nil {
		return 0
	}
	return s.gd.Pending()
}

// openWAL opens (creating if absent) the configured WAL and replays its
// tail beyond afterSeq: into the database only (bootstrap before the
// initial build) or additionally into the live deltas (withDeltas, the
// store-backed recovery path). It returns the terms the replayed batches
// touched, for the caller's single publish. No-op without WALPath.
func (s *System) openWAL(afterSeq uint64, withDeltas bool) ([]string, error) {
	var touched []string
	if s.opts.WALPath == "" {
		return nil, nil
	}
	if s.opts.PrestigeDamping != 0 {
		return nil, errors.New("banks: live mutations (WALPath) cannot maintain PageRank-style prestige (PrestigeDamping) incrementally; choose one")
	}
	l, err := wal.Open(s.opts.WALPath, afterSeq, func(b wal.Batch) error {
		if withDeltas {
			_, _, bt, err := s.applyResolved(b.Muts, b.Seq)
			if err != nil {
				return err
			}
			touched = append(touched, bt...)
		} else if err := s.replayToDB(b); err != nil {
			return err
		}
		s.appliedSeq = b.Seq
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("banks: opening WAL: %w", err)
	}
	s.wal = l
	return touched, nil
}

// attachLiveMutations wires the WAL onto a store-opened system: the live
// deltas overlay the store's lazy views, and the journal tail beyond the
// store's recorded sequence is replayed through them, restoring the
// pre-crash engine without a rebuild. Callers own st until the System is
// returned, so no locking is needed.
func (s *System) attachLiveMutations(st *store.Store) error {
	if s.opts.WALPath == "" {
		return nil
	}
	after, err := st.WALSeq()
	if err != nil {
		return fmt.Errorf("banks: reading store WAL sequence: %w", err)
	}
	s.gd = graph.NewDelta(st.Graph(), s.db.inner, !s.opts.DisableBackEdgeScaling)
	s.id = index.NewDelta(st.Index())
	s.appliedSeq = after
	touched, err := s.openWAL(after, true)
	if err != nil {
		return err
	}
	if s.appliedSeq > after {
		s.publishLocked(s.appliedSeq, touched)
	}
	// Nothing replayed: the store engine installed by the caller already
	// carries the store's sequence stamp (installStoreEngine sets walSeq
	// before publishing the engine — it is never mutated afterwards).
	return nil
}

// replayToDB writes one journaled batch to the database alone — the
// NewSystem bootstrap, where the engine is built afterwards.
func (s *System) replayToDB(b wal.Batch) error {
	u := s.db.inner.Begin()
	if err := writeBatch(u, b.Muts, true); err != nil {
		return rollback(u, fmt.Errorf("banks: WAL replay (seq %d): %w", b.Seq, err))
	}
	return nil
}

// publishLocked snapshots the live deltas and swaps in the next engine
// over them, carrying the previous snapshot's match cache forward:
// touched lists the terms whose match sets the batch changed (they and
// their covering prefix entries are invalidated under a new epoch;
// everything else stays hot). Overlay publishes only ever append node
// ids, so the carried entries always name valid nodes of the new
// snapshot.
func (s *System) publishLocked(seq uint64, touched []string) {
	gSnap := s.gd.Snapshot()
	ixSnap := s.id.Snapshot(gSnap.NumNodes())
	eng := newEngineFrom(s.eng.Load(), gSnap, ixSnap, s.opts, touched)
	eng.st = s.store
	if s.store != nil {
		eng.searcher.WithFaultMeter(s.store.FaultedBytes)
	}
	eng.walSeq = seq
	s.eng.Store(eng)
	s.warmPublishes.Add(1)
}

// resolveMutations converts the public batch into journal form: ops
// checked, tables resolved against the current graph, column values
// converted, columns sorted for deterministic encoding.
func (s *System) resolveMutations(muts []Mutation) ([]wal.Mutation, error) {
	g := s.engine().g
	out := make([]wal.Mutation, len(muts))
	for i, m := range muts {
		if m.Table == "" {
			return nil, fmt.Errorf("banks: mutation %d has no table", i)
		}
		if g.TableID(m.Table) < 0 {
			return nil, fmt.Errorf("banks: mutation %d: table %q is not part of the current graph; new tables need a Compact", i, m.Table)
		}
		wm := wal.Mutation{Table: m.Table, RID: m.RID}
		switch m.Op {
		case MutationInsert:
			wm.Op = wal.OpInsert
			if m.RID != 0 {
				return nil, fmt.Errorf("banks: mutation %d: insert must not address a rid (the database assigns it)", i)
			}
			if len(m.Set) == 0 {
				return nil, fmt.Errorf("banks: mutation %d: insert with no column values", i)
			}
		case MutationUpdate:
			wm.Op = wal.OpUpdate
			if m.RID < 0 {
				return nil, fmt.Errorf("banks: mutation %d: negative rid", i)
			}
			if len(m.Set) == 0 {
				return nil, fmt.Errorf("banks: mutation %d: update with no column values", i)
			}
		case MutationDelete:
			wm.Op = wal.OpDelete
			if m.RID < 0 {
				return nil, fmt.Errorf("banks: mutation %d: negative rid", i)
			}
			if len(m.Set) != 0 {
				return nil, fmt.Errorf("banks: mutation %d: delete must not carry column values", i)
			}
		default:
			return nil, fmt.Errorf("banks: mutation %d: unknown op %v", i, m.Op)
		}
		cols := make([]string, 0, len(m.Set))
		for c := range m.Set {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			v, err := toValue(m.Set[c])
			if err != nil {
				return nil, fmt.Errorf("banks: mutation %d, column %s: %w", i, c, err)
			}
			wm.Cols = append(wm.Cols, c)
			wm.Vals = append(wm.Vals, v)
		}
		out[i] = wm
	}
	return out, nil
}

// applyResolved runs one batch through the database, the journal and the
// live deltas, and returns the batch's sequence, the rids it addressed
// and the tokens it added to or removed from any node (for the warm
// publish). replaySeq is 0 on the Apply path (the batch is appended to
// the WAL) and the journaled sequence during replay (insert rids are
// asserted against the journal instead). The database's own writes are
// the only checks: a batch it rejects, or the journal rejects, is rolled
// back. A batch folded whole adds its writes to s.synced. Callers hold
// s.mu (or own the System exclusively, during open). While a Compact is
// building aside (s.tail non-nil), the pre-batch state of every row the
// journaled batch touched is added to the tail log.
func (s *System) applyResolved(wmuts []wal.Mutation, replaySeq uint64) (uint64, []int64, []string, error) {
	db := s.db.inner
	wrap := func(err error) error {
		if replaySeq > 0 {
			return fmt.Errorf("banks: WAL replay (seq %d): %w", replaySeq, err)
		}
		return fmt.Errorf("banks: %w", err)
	}

	// Capture, before any write, the state of every live row the batch
	// updates or deletes: token set and node, plus FK targets for a
	// structural change, so one diff per row covers chains like
	// update-then-delete. Rows that are not live yet are the batch's own
	// inserts (or writes the database will reject).
	preView := s.gd.Snapshot()
	batch := newRowLog()
	for i := range wmuts {
		m := &wmuts[i]
		tbl, rid := db.Table(m.Table), sqldb.RID(m.RID)
		if m.Op == wal.OpInsert || tbl == nil || !tbl.Live(rid) {
			continue
		}
		rs := batch.get(m.Table, rid)
		if rs == nil {
			rs = batch.add(rowState{table: m.Table, rid: rid, existed: true,
				oldToks: s.rowTokens(m.Table, rid), oldNode: preView.NodeOf(m.Table, rid)})
		}
		if !rs.targetsKnown && (m.Op == wal.OpDelete || graphRelevantCols(tbl, m.Cols)) {
			targets, err := s.gd.Targets(m.Table, rid)
			if err != nil {
				return 0, nil, nil, wrap(fmt.Errorf("mutation %d: %w", i, err))
			}
			rs.targets, rs.targetsKnown = targets, true
		}
	}

	undo := db.Begin()
	if err := writeBatch(undo, wmuts, replaySeq > 0); err != nil {
		return 0, nil, nil, rollback(undo, wrap(err))
	}
	seq := replaySeq
	if replaySeq == 0 {
		var err error
		if seq, err = s.wal.Append(wmuts); err != nil {
			return 0, nil, nil, rollback(undo, fmt.Errorf("banks: journaling the batch: %w", err))
		}
	}

	var changes []graph.RowChange
	rids := make([]int64, len(wmuts))
	for i := range wmuts {
		m := &wmuts[i]
		rid := sqldb.RID(m.RID)
		rids[i] = m.RID
		op := graph.RowDelete
		switch m.Op {
		case wal.OpInsert:
			batch.add(rowState{table: m.Table, rid: rid, oldNode: graph.NoNode})
			changes = append(changes, graph.RowChange{Op: graph.RowInsert, Table: m.Table, RID: rid})
			continue
		case wal.OpUpdate:
			// A change to non-key, non-FK columns cannot move edges or
			// prestige; only the index diff below applies.
			if !graphRelevantCols(db.Table(m.Table), m.Cols) {
				continue
			}
			op = graph.RowUpdate
		}
		changes = append(changes, graph.RowChange{Op: op, Table: m.Table, RID: rid, OldTargets: batch.get(m.Table, rid).targets})
	}
	if s.tail != nil {
		for _, rs := range batch.rows {
			s.tail.add(rs)
		}
	}

	if len(changes) > 0 {
		if err := s.gd.Apply(changes); err != nil {
			return 0, nil, nil, wrap(fmt.Errorf("batch was journaled but the graph delta rejected it (%w); Compact resynchronizes", err))
		}
	}
	s.synced += uint64(undo.Len())
	gSnap := s.gd.Snapshot()
	tokSet := map[string]bool{}
	for _, rt := range batch.rows {
		newToks := s.rowTokens(rt.table, rt.rid)
		node := rt.oldNode
		if node == graph.NoNode {
			node = gSnap.NodeOf(rt.table, rt.rid)
		}
		if node == graph.NoNode {
			continue // inserted and deleted within the batch: no tokens either side
		}
		for tok := range rt.oldToks {
			if !newToks[tok] {
				s.id.Remove(tok, node)
				tokSet[tok] = true
			}
		}
		for tok := range newToks {
			if !rt.oldToks[tok] {
				s.id.Add(tok, node)
				tokSet[tok] = true
			}
		}
	}
	var touchedToks []string
	for tok := range tokSet {
		touchedToks = append(touchedToks, tok)
	}
	return seq, rids, touchedToks, nil
}

// writeBatch writes a journal batch to the database in order, through
// the undo log u. An insert records the rid the database assigns or,
// when replaying, must be assigned the rid the journal recorded: a
// mismatch means the database does not hold the rows the journal was
// written against.
func writeBatch(u *sqldb.Undo, muts []wal.Mutation, replay bool) error {
	for i := range muts {
		m := &muts[i]
		var err error
		switch m.Op {
		case wal.OpInsert:
			var rid sqldb.RID
			if rid, err = u.InsertMap(m.Table, colMap(m)); err == nil && replay && int64(rid) != m.RID {
				err = fmt.Errorf("insert into %s assigned rid %d, journal recorded %d — the database does not match the journal's base state", m.Table, rid, m.RID)
			}
			if !replay {
				m.RID = int64(rid)
			}
		case wal.OpUpdate:
			err = u.Update(m.Table, sqldb.RID(m.RID), colMap(m))
		case wal.OpDelete:
			err = u.Delete(m.Table, sqldb.RID(m.RID))
		default:
			err = fmt.Errorf("unknown op %d", m.Op)
		}
		if err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return nil
}

// rollback undoes a rejected batch's writes and returns err. A rollback
// the database refuses (another writer changed it meanwhile) leaves the
// batch's writes in place, and synced behind the database's counter.
func rollback(u *sqldb.Undo, err error) error {
	if rerr := u.Rollback(); rerr != nil {
		return fmt.Errorf("%w; undoing its writes failed (%v), Compact resynchronizes", err, rerr)
	}
	return err
}

// rowKey identifies one row in a rowLog.
type rowKey struct {
	table string // lowercased
	rid   sqldb.RID
}

// rowLog holds rows' states before their first touch: within one batch
// (its token diff and graph changes) or within the tail window of a
// Compact building aside. The window's state is the one the aside base
// was materialized from, since rows untouched since the snapshot are
// unchanged, so the fold replays the window as one net per-row change
// set — a row touched five times folds once.
type rowLog struct {
	idx  map[rowKey]int
	rows []rowState
}

// rowState is one row's state at its first touch.
type rowState struct {
	table   string
	rid     sqldb.RID
	existed bool            // live before the first touch
	oldToks map[string]bool // token set before the first touch (nil unless existed)
	oldNode graph.NodeID    // the row's node before the batch, or NoNode
	// targets holds the row's FK targets before the first touch; captured
	// at the first structural touch (text updates cannot move targets, so
	// that capture still sees the first-touch state).
	targets      []graph.RowRef
	targetsKnown bool
}

func newRowLog() *rowLog { return &rowLog{idx: map[rowKey]int{}} }

// add records rs unless the row is already in the log, where it only
// fills in targets the log does not know yet, and returns the row's entry.
func (l *rowLog) add(rs rowState) *rowState {
	k := rowKey{strings.ToLower(rs.table), rs.rid}
	i, ok := l.idx[k]
	if !ok {
		l.idx[k] = len(l.rows)
		l.rows = append(l.rows, rs)
		return &l.rows[len(l.rows)-1]
	}
	if e := &l.rows[i]; rs.targetsKnown && !e.targetsKnown {
		e.targets, e.targetsKnown = rs.targets, true
	}
	return &l.rows[i]
}

// get returns the logged state of the row (table, rid), or nil.
func (l *rowLog) get(table string, rid sqldb.RID) *rowState {
	if i, ok := l.idx[rowKey{strings.ToLower(table), rid}]; ok {
		return &l.rows[i]
	}
	return nil
}

// foldTail replays a tail window onto the freshly compacted base as net
// per-row changes: each row's window-open state (captured first-touch)
// against its current database state decides one insert, update, delete
// or nothing. Callers hold s.mu; the database already contains every
// tail mutation.
func (s *System) foldTail(tail *rowLog, g1 *graph.Graph, gd1 *graph.Delta, id1 *index.Delta) error {
	if len(tail.rows) == 0 {
		return nil
	}
	db := s.db.inner
	live := func(rt *rowState) bool {
		tbl := db.Table(rt.table)
		return tbl != nil && tbl.Live(rt.rid)
	}
	var changes []graph.RowChange
	for i := range tail.rows {
		rt := &tail.rows[i]
		switch {
		case rt.existed && live(rt):
			// Still present: a graph change only if some touch was
			// structural (targetsKnown); pure text churn is index-only.
			if rt.targetsKnown {
				changes = append(changes, graph.RowChange{Op: graph.RowUpdate, Table: rt.table, RID: rt.rid, OldTargets: rt.targets})
			}
		case rt.existed:
			changes = append(changes, graph.RowChange{Op: graph.RowDelete, Table: rt.table, RID: rt.rid, OldTargets: rt.targets})
		case live(rt):
			changes = append(changes, graph.RowChange{Op: graph.RowInsert, Table: rt.table, RID: rt.rid})
		default:
			// Inserted and deleted within the window: no net change.
		}
	}
	if len(changes) > 0 {
		if err := gd1.Apply(changes); err != nil {
			return fmt.Errorf("banks: folding compaction tail: %w", err)
		}
	}
	snap := gd1.Snapshot()
	for i := range tail.rows {
		rt := &tail.rows[i]
		var node graph.NodeID
		switch {
		case rt.existed:
			node = g1.NodeOf(rt.table, rt.rid) // in the base even if since deleted
		case live(rt):
			node = snap.NodeOf(rt.table, rt.rid) // delta node from the insert above
		default:
			continue
		}
		if node == graph.NoNode {
			continue
		}
		var newToks map[string]bool
		if live(rt) {
			newToks = s.rowTokens(rt.table, rt.rid)
		}
		for tok := range rt.oldToks {
			if !newToks[tok] {
				id1.Remove(tok, node)
			}
		}
		for tok := range newToks {
			if !rt.oldToks[tok] {
				id1.Add(tok, node)
			}
		}
	}
	return nil
}

// rowTokens returns the token set of the row's text columns — the same
// per-row view the index build tokenizes.
func (s *System) rowTokens(table string, rid sqldb.RID) map[string]bool {
	tbl := s.db.inner.Table(table)
	if tbl == nil {
		return nil
	}
	row := tbl.Row(rid)
	if row == nil {
		return nil
	}
	set := make(map[string]bool)
	for i, c := range tbl.Schema().Columns {
		if c.Type != sqldb.TypeText || row[i].IsNull() {
			continue
		}
		for _, tok := range index.Tokenize(row[i].S) {
			set[tok] = true
		}
	}
	return set
}

// graphRelevantCols reports whether touching cols of tbl can move graph
// structure: foreign-key columns rewire edges, key columns re-target the
// references of other rows. Names are matched by the table's own lookup.
func graphRelevantCols(tbl *sqldb.Table, cols []string) bool {
	sch := tbl.Schema()
	for _, c := range cols {
		i := tbl.ColumnIndex(c)
		for _, fk := range sch.ForeignKeys {
			if tbl.ColumnIndex(fk.Column) == i {
				return true
			}
		}
		for _, pk := range sch.PrimaryKey {
			if tbl.ColumnIndex(pk) == i {
				return true
			}
		}
	}
	return false
}

// colMap renders a journal mutation's columns as the map form the
// database takes.
func colMap(m *wal.Mutation) map[string]sqldb.Value {
	set := make(map[string]sqldb.Value, len(m.Cols))
	for i, c := range m.Cols {
		set[c] = m.Vals[i]
	}
	return set
}
