package banks

// Live mutations: System.Apply journals row-level changes to a
// write-ahead log and folds them into delta overlays over the immutable
// engine — graph.Delta patches the affected nodes' edges and prestige,
// index.Delta diffs the affected rows' token sets — then publishes a new
// engine snapshot (base + delta views) through the same atomic pointer
// Refresh uses. Queries in flight keep the snapshot they pinned; queries
// that begin after Apply returns see the mutated rows. The whole path
// costs milliseconds where Refresh pays the full SQL→graph→index rebuild.
//
// Durability pairs the WAL with the segmented store: the store records
// the last folded WAL sequence, Compact persists the folded engine and
// truncates the journal, and OpenSystem replays only the tail beyond the
// store's sequence — so a crash between Apply and Compact loses nothing.
//
// Apply is not transactional: each row change is applied to the database
// in order, and a failure mid-batch (after the upfront validation pass,
// which catches the ordinary constraint violations) leaves the database
// ahead of the engine. Such a failure is sticky — further Applies are
// refused until Refresh or Compact resynchronizes from the database.

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

// Apply journals the batch to the write-ahead log, applies it to the
// database, folds it into the live graph and index deltas, and atomically
// publishes a new engine snapshot containing the changes — all without a
// rebuild. It requires SystemOptions.WALPath. The batch is applied in
// order; an upfront validation pass rejects constraint violations
// (unknown rows, duplicate keys, dangling or restricted foreign keys)
// before anything is written.
//
// Mutations cover row changes within the known schema. Schema changes —
// new tables, new foreign keys — and bulk loads go through Refresh.
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
	if s.mutErr != nil {
		return nil, s.mutErr
	}
	wmuts, err := s.resolveMutations(muts)
	if err != nil {
		return nil, err
	}
	if err := s.validateResolved(wmuts); err != nil {
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
// overlay indirection and the journal tail are gone. Compact also clears
// a sticky Apply failure, resynchronizing the engine with the database.
//
// Compact does not block Apply for the duration of the fold: it
// snapshots the overlay, materializes and persists the compacted base
// off to the side, and takes the writer lock only to fold the batches
// that arrived during the build onto the fresh base and swap — so a
// concurrent Apply stalls for the final fold+swap, not the rebuild.
// Concurrent Compacts serialize; a Refresh that lands mid-build wins
// (its engine already contains everything) and the aside work is
// discarded.
func (s *System) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1 (brief lock): snapshot the overlay at a fixed sequence and
	// start logging the first-touch state of every row Apply touches from
	// here on, so the tail can be folded as net per-row changes later.
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.wal == nil || s.gd == nil || s.mutErr != nil {
		// No live overlay to fold aside (plain systems), or a mid-batch
		// failure left the database ahead of the deltas — the blocking
		// rebuild from the database is the only correct path.
		defer s.mu.Unlock()
		return s.rebuildLocked()
	}
	gView := s.gd.Snapshot()
	ixView := s.id.Snapshot(gView.NumNodes())
	s0 := s.appliedSeq
	gen := s.rebuildGen
	var warm []string
	if old := s.eng.Load(); old != nil && old.cache != nil {
		warm = old.cache.HotKeys(warmKeyLimit)
	}
	s.tail = newTailLog()
	s.mu.Unlock()

	dropTail := func() {
		s.mu.Lock()
		if s.tail != nil {
			s.tail = nil
		}
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
	tail := s.tail
	s.tail = nil
	discard := func() {
		if tmpStore != "" {
			os.Remove(tmpStore)
		}
	}
	if s.closed.Load() {
		discard()
		return ErrClosed
	}
	if s.rebuildGen != gen {
		// A Refresh (or recovery rebuild) replaced the base mid-build; its
		// engine and store already contain everything we folded.
		discard()
		return nil
	}
	if s.mutErr != nil {
		// A batch failed mid-flight during the build: the database is
		// ahead of both the old deltas and our tail log.
		discard()
		return s.rebuildLocked()
	}
	gd1 := graph.NewDelta(g1, s.db.inner, !s.opts.DisableBackEdgeScaling)
	id1 := index.NewDelta(ix1)
	if err := s.foldTail(tail, g1, gd1, id1); err != nil {
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
	tailEmpty := tail == nil || len(tail.rows) == 0
	carry := tailEmpty && prev != nil &&
		gView.DeltaNodes() == 0 && gView.Tombstones() == 0
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
	s.rebuildGen++
	s.mutErr = nil
	return nil
}

// PendingMutations reports how many row mutations have been folded into
// the live deltas since the last compaction; 0 for systems without
// WALPath (or right after Compact/Refresh).
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

// replayToDB applies one journaled batch to the database alone — the
// NewSystem bootstrap, where the engine is built afterwards. Insert
// replay asserts that the database assigns the journaled rid: a mismatch
// means the database does not hold the rows the WAL was journaled
// against.
func (s *System) replayToDB(b wal.Batch) error {
	db := s.db.inner
	for i := range b.Muts {
		m := &b.Muts[i]
		switch m.Op {
		case wal.OpInsert:
			rid, err := db.InsertMap(m.Table, colMap(m))
			if err != nil {
				return fmt.Errorf("banks: WAL replay (seq %d): %w", b.Seq, err)
			}
			if int64(rid) != m.RID {
				return fmt.Errorf("banks: WAL replay diverged at seq %d: insert into %s assigned rid %d, journal recorded %d — the database does not match the journal's base state",
					b.Seq, m.Table, rid, m.RID)
			}
		case wal.OpUpdate:
			if err := db.Update(m.Table, sqldb.RID(m.RID), colMap(m)); err != nil {
				return fmt.Errorf("banks: WAL replay (seq %d): %w", b.Seq, err)
			}
		case wal.OpDelete:
			if err := db.Delete(m.Table, sqldb.RID(m.RID)); err != nil {
				return fmt.Errorf("banks: WAL replay (seq %d): %w", b.Seq, err)
			}
		default:
			return fmt.Errorf("banks: WAL replay (seq %d): unknown op %d", b.Seq, m.Op)
		}
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
	prev := s.eng.Load()
	eng := newEngineFrom(prev, gSnap, ixSnap, s.opts, touched)
	eng.st = s.store
	if s.store != nil {
		eng.searcher.WithFaultMeter(s.store.FaultedBytes)
	}
	eng.walSeq = seq
	s.eng.Store(eng)
	if prev != nil {
		s.warmPublishes.Add(1)
	}
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
			return nil, fmt.Errorf("banks: mutation %d: table %q is not part of the current graph; new tables need a full Refresh", i, m.Table)
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

// simKey identifies one row during batch validation and folding.
type simKey struct {
	table string // lowercased
	rid   sqldb.RID
}

// validateResolved rejects a batch that would violate database
// constraints, before anything is written — mirroring the checks Insert,
// Update and Delete enforce (NOT NULL, key uniqueness, foreign-key
// existence and delete/key-change restriction) while simulating the
// batch's own inserts and deletes, so intra-batch dependencies (insert a
// paper, then a citation to it; delete the citations, then the paper)
// validate correctly. The mirror is conservative: anything it cannot
// prove safe is left to the database, whose mid-batch failure is sticky.
func (s *System) validateResolved(wmuts []wal.Mutation) error {
	db := s.db.inner
	simDeleted := map[simKey]bool{}
	simFreedPK := map[string]map[sqldb.Value]bool{} // table -> pk values freed by in-batch deletes
	simAddedPK := map[string]map[sqldb.Value]bool{} // table -> pk values added by in-batch inserts
	type simIns struct {
		tbl  *sqldb.Table
		vals map[string]sqldb.Value // lowercased column -> coerced value
	}
	var simInserted []simIns

	// targetLive reports whether a single-column key value resolves to a
	// live referenced row once the batch's own effects are considered.
	targetLive := func(refTable string, v sqldb.Value) (bool, error) {
		ref := db.Table(refTable)
		if ref == nil {
			return false, fmt.Errorf("no such table %s", refTable)
		}
		pk := ref.Schema().PrimaryKey
		if len(pk) != 1 {
			return false, fmt.Errorf("table %s has no single-column primary key", refTable)
		}
		cv, err := v.Convert(ref.Schema().Column(pk[0]).Type)
		if err != nil {
			return false, err
		}
		lower := strings.ToLower(refTable)
		if simAddedPK[lower][cv] {
			return true, nil
		}
		rid := ref.LookupPK([]sqldb.Value{cv})
		return rid >= 0 && !simDeleted[simKey{lower, rid}], nil
	}

	for i := range wmuts {
		m := &wmuts[i]
		tbl := db.Table(m.Table)
		if tbl == nil {
			return fmt.Errorf("banks: mutation %d: no such table %s", i, m.Table)
		}
		sch := tbl.Schema()
		lower := strings.ToLower(m.Table)

		// Coerce the provided values to their column types up front, so
		// conversion failures surface here rather than mid-batch.
		vals := make(map[string]sqldb.Value, len(m.Cols))
		for j, c := range m.Cols {
			col := sch.Column(c)
			if col == nil {
				return fmt.Errorf("banks: mutation %d: no column %s.%s", i, m.Table, c)
			}
			cv, err := m.Vals[j].Convert(col.Type)
			if err != nil {
				return fmt.Errorf("banks: mutation %d: column %s.%s: %w", i, m.Table, c, err)
			}
			vals[strings.ToLower(c)] = cv
		}

		switch m.Op {
		case wal.OpInsert:
			for _, col := range sch.Columns {
				if v, ok := vals[strings.ToLower(col.Name)]; col.NotNull && (!ok || v.IsNull()) {
					return fmt.Errorf("banks: mutation %d: %s.%s is NOT NULL", i, m.Table, col.Name)
				}
			}
			if len(sch.PrimaryKey) > 0 {
				pkVals := make([]sqldb.Value, len(sch.PrimaryKey))
				for j, name := range sch.PrimaryKey {
					v, ok := vals[strings.ToLower(name)]
					if !ok || v.IsNull() {
						return fmt.Errorf("banks: mutation %d: primary key %s.%s missing", i, m.Table, name)
					}
					pkVals[j] = v
				}
				dup := false
				if len(pkVals) == 1 {
					if simAddedPK[lower][pkVals[0]] {
						dup = true
					} else if rid := tbl.LookupPK(pkVals); rid >= 0 && !simFreedPK[lower][pkVals[0]] {
						dup = true
					}
					if !dup {
						if simAddedPK[lower] == nil {
							simAddedPK[lower] = map[sqldb.Value]bool{}
						}
						simAddedPK[lower][pkVals[0]] = true
						delete(simFreedPK[lower], pkVals[0])
					}
				} else if tbl.LookupPK(pkVals) >= 0 {
					dup = true
				}
				if dup {
					return fmt.Errorf("banks: mutation %d: duplicate key in %s", i, m.Table)
				}
			}
			if err := checkFKs(sch, vals, targetLive, i, m.Table); err != nil {
				return err
			}
			simInserted = append(simInserted, simIns{tbl: tbl, vals: vals})

		case wal.OpUpdate:
			rid := sqldb.RID(m.RID)
			if !tbl.Live(rid) || simDeleted[simKey{lower, rid}] {
				return fmt.Errorf("banks: mutation %d: no such row: %s rid %d", i, m.Table, m.RID)
			}
			keyChanged := false
			for _, name := range sch.PrimaryKey {
				if _, ok := vals[strings.ToLower(name)]; ok {
					keyChanged = true
				}
			}
			if keyChanged && len(db.Referencing(m.Table, rid)) > 0 {
				return fmt.Errorf("banks: mutation %d: cannot change the key of %s rid %d while other rows reference it", i, m.Table, m.RID)
			}
			if err := checkFKs(sch, vals, targetLive, i, m.Table); err != nil {
				return err
			}

		case wal.OpDelete:
			rid := sqldb.RID(m.RID)
			key := simKey{lower, rid}
			if !tbl.Live(rid) || simDeleted[key] {
				return fmt.Errorf("banks: mutation %d: no such row: %s rid %d", i, m.Table, m.RID)
			}
			for _, ref := range db.Referencing(m.Table, rid) {
				refLower := strings.ToLower(ref.Table)
				for _, r2 := range ref.RIDs {
					if !simDeleted[simKey{refLower, r2}] {
						return fmt.Errorf("banks: mutation %d: %s rid %d is referenced by %s.%s; delete the referencing rows first (in the same batch is fine)",
							i, m.Table, m.RID, ref.Table, ref.Column)
					}
				}
			}
			// In-batch inserts referencing this row block the delete too.
			if pk := sch.PrimaryKey; len(pk) == 1 {
				pkIdx := sch.ColumnIndex(pk[0])
				pkVal := tbl.Row(rid)[pkIdx]
				for _, ins := range simInserted {
					for _, fk := range ins.tbl.Schema().ForeignKeys {
						if !strings.EqualFold(fk.RefTable, m.Table) {
							continue
						}
						v, ok := ins.vals[strings.ToLower(fk.Column)]
						if !ok || v.IsNull() {
							continue
						}
						if cv, err := v.Convert(pkVal.T); err == nil && cv == pkVal {
							return fmt.Errorf("banks: mutation %d: %s rid %d is referenced by an insert earlier in this batch", i, m.Table, m.RID)
						}
					}
				}
				if simFreedPK[lower] == nil {
					simFreedPK[lower] = map[sqldb.Value]bool{}
				}
				simFreedPK[lower][pkVal] = true
				delete(simAddedPK[lower], pkVal)
			}
			simDeleted[key] = true
		}
	}
	return nil
}

// checkFKs validates the provided foreign-key columns of one row against
// the batch-aware target lookup.
func checkFKs(sch *sqldb.TableSchema, vals map[string]sqldb.Value,
	targetLive func(string, sqldb.Value) (bool, error), i int, table string) error {
	for _, fk := range sch.ForeignKeys {
		v, ok := vals[strings.ToLower(fk.Column)]
		if !ok || v.IsNull() {
			continue
		}
		live, err := targetLive(fk.RefTable, v)
		if err != nil {
			return fmt.Errorf("banks: mutation %d: %s.%s: %v", i, table, fk.Column, err)
		}
		if !live {
			return fmt.Errorf("banks: mutation %d: %s.%s = %s has no match in %s", i, table, fk.Column, v, fk.RefTable)
		}
	}
	return nil
}

// applyResolved runs one validated batch through the database, the
// journal and the live deltas, and returns the batch's sequence, the rids
// it addressed and the tokens it added to or removed from any node (for
// the warm publish). replaySeq is 0 on the Apply path (the
// batch is appended to the WAL) and the journaled sequence during replay
// (insert rids are asserted against the journal instead). Callers hold
// s.mu (or own the System exclusively, during open). While a Compact is
// building aside (s.tail non-nil), the pre-batch state of every
// first-touched row is additionally recorded for the tail fold.
func (s *System) applyResolved(wmuts []wal.Mutation, replaySeq uint64) (uint64, []int64, []string, error) {
	db := s.db.inner
	preView := s.gd.Snapshot()

	// First-touch capture per row: the token set and node before the
	// batch, so one diff per row covers chains like update-then-delete.
	type rowTouch struct {
		table   string
		rid     sqldb.RID
		oldToks map[string]bool
		oldNode graph.NodeID
	}
	touchIdx := map[simKey]int{}
	var touched []rowTouch
	touch := func(table string, rid sqldb.RID, exists bool) {
		k := simKey{strings.ToLower(table), rid}
		if _, ok := touchIdx[k]; ok {
			return
		}
		rt := rowTouch{table: table, rid: rid, oldNode: graph.NoNode}
		if exists {
			rt.oldToks = s.rowTokens(table, rid)
			rt.oldNode = preView.NodeOf(table, rid)
		}
		touchIdx[k] = len(touched)
		touched = append(touched, rt)
		if s.tail != nil {
			s.tail.note(k, table, rid, exists, rt.oldToks)
		}
	}

	// fail distinguishes a clean first-mutation failure (nothing written,
	// the caller can retry) from a mid-batch one, which leaves the
	// database ahead of the engine and is therefore sticky until a
	// rebuild resynchronizes them.
	fail := func(i int, err error) error {
		if replaySeq > 0 {
			return fmt.Errorf("banks: WAL replay (seq %d), mutation %d: %w", replaySeq, i, err)
		}
		if i == 0 {
			return fmt.Errorf("banks: applying mutation 0: %w", err)
		}
		s.mutErr = fmt.Errorf("banks: mutation batch failed after %d of %d changes reached the database (%v); the engine no longer matches it — Refresh or Compact to resynchronize", i, len(wmuts), err)
		return s.mutErr
	}

	var changes []graph.RowChange
	rids := make([]int64, len(wmuts))
	for i := range wmuts {
		m := &wmuts[i]
		switch m.Op {
		case wal.OpInsert:
			rid, err := db.InsertMap(m.Table, colMap(m))
			if err != nil {
				return 0, nil, nil, fail(i, err)
			}
			if replaySeq > 0 {
				if int64(rid) != m.RID {
					return 0, nil, nil, fmt.Errorf("banks: WAL replay diverged at seq %d: insert into %s assigned rid %d, journal recorded %d — the database does not match the journal's base state",
						replaySeq, m.Table, rid, m.RID)
				}
			} else {
				m.RID = int64(rid)
			}
			touch(m.Table, rid, false)
			changes = append(changes, graph.RowChange{Op: graph.RowInsert, Table: m.Table, RID: rid})
			rids[i] = int64(rid)

		case wal.OpUpdate:
			rid := sqldb.RID(m.RID)
			touch(m.Table, rid, true)
			relevant := graphRelevantCols(db.Table(m.Table).Schema(), m.Cols)
			var oldT []graph.RowRef
			if relevant {
				var err error
				if oldT, err = s.gd.Targets(m.Table, rid); err != nil {
					return 0, nil, nil, fail(i, err)
				}
				if s.tail != nil {
					s.tail.noteTargets(simKey{strings.ToLower(m.Table), rid}, oldT)
				}
			}
			if err := db.Update(m.Table, rid, colMap(m)); err != nil {
				return 0, nil, nil, fail(i, err)
			}
			// A change to non-key, non-FK columns cannot move edges or
			// prestige; only the index diff below applies.
			if relevant {
				changes = append(changes, graph.RowChange{Op: graph.RowUpdate, Table: m.Table, RID: rid, OldTargets: oldT})
			}
			rids[i] = m.RID

		case wal.OpDelete:
			rid := sqldb.RID(m.RID)
			touch(m.Table, rid, true)
			oldT, err := s.gd.Targets(m.Table, rid)
			if err != nil {
				return 0, nil, nil, fail(i, err)
			}
			if s.tail != nil {
				s.tail.noteTargets(simKey{strings.ToLower(m.Table), rid}, oldT)
			}
			if err := db.Delete(m.Table, rid); err != nil {
				return 0, nil, nil, fail(i, err)
			}
			changes = append(changes, graph.RowChange{Op: graph.RowDelete, Table: m.Table, RID: rid, OldTargets: oldT})
			rids[i] = m.RID

		default:
			return 0, nil, nil, fail(i, fmt.Errorf("unknown op %d", m.Op))
		}
	}

	seq := replaySeq
	if replaySeq == 0 {
		var err error
		if seq, err = s.wal.Append(wmuts); err != nil {
			s.mutErr = fmt.Errorf("banks: batch reached the database but journaling failed (%v); Refresh or Compact to resynchronize", err)
			return 0, nil, nil, s.mutErr
		}
	}

	if len(changes) > 0 {
		if err := s.gd.Apply(changes); err != nil {
			if replaySeq > 0 {
				return 0, nil, nil, fmt.Errorf("banks: WAL replay (seq %d): folding into graph delta: %w", replaySeq, err)
			}
			s.mutErr = fmt.Errorf("banks: batch reached the database but the graph delta rejected it (%v); Refresh or Compact to resynchronize", err)
			return 0, nil, nil, s.mutErr
		}
	}
	gSnap := s.gd.Snapshot()
	tokSet := map[string]bool{}
	for _, rt := range touched {
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

// tailLog records the batches Apply folds while a Compact builds its
// base aside: for every row, the state it had when the tail window
// opened (which is the state the aside base was materialized from, since
// rows untouched since the snapshot are unchanged). The fold then
// replays the window as one net per-row change set — a row touched five
// times folds once.
type tailLog struct {
	idx  map[simKey]int
	rows []tailRow
}

// tailRow is one row's first-touch capture within the tail window.
type tailRow struct {
	table   string
	rid     sqldb.RID
	existed bool            // live when the window opened
	oldToks map[string]bool // token set at window open (nil unless existed)
	// targets holds the row's FK target set at window open; captured
	// lazily at the first structural touch (text updates cannot move
	// targets, so the first capture still sees the window-open state).
	targets      []graph.RowRef
	targetsKnown bool
}

func newTailLog() *tailLog { return &tailLog{idx: map[simKey]int{}} }

// note records the row's pre-mutation state the first time the window
// sees it; later touches are ignored (their "old" state is mid-window).
func (t *tailLog) note(k simKey, table string, rid sqldb.RID, existed bool, oldToks map[string]bool) {
	if _, ok := t.idx[k]; ok {
		return
	}
	t.idx[k] = len(t.rows)
	t.rows = append(t.rows, tailRow{table: table, rid: rid, existed: existed, oldToks: oldToks})
}

// noteTargets records the row's pre-mutation FK targets on the first
// structural touch.
func (t *tailLog) noteTargets(k simKey, targets []graph.RowRef) {
	i, ok := t.idx[k]
	if !ok || t.rows[i].targetsKnown {
		return
	}
	t.rows[i].targets = append([]graph.RowRef(nil), targets...)
	t.rows[i].targetsKnown = true
}

// foldTail replays a tail window onto the freshly compacted base as net
// per-row changes: each row's window-open state (captured first-touch)
// against its current database state decides one insert, update, delete
// or nothing. Callers hold s.mu; the database already contains every
// tail mutation.
func (s *System) foldTail(tail *tailLog, g1 *graph.Graph, gd1 *graph.Delta, id1 *index.Delta) error {
	if tail == nil || len(tail.rows) == 0 {
		return nil
	}
	db := s.db.inner
	live := func(rt *tailRow) bool {
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

// graphRelevantCols reports whether touching cols can move graph
// structure: foreign-key columns rewire edges, key columns re-target the
// references of other rows.
func graphRelevantCols(sch *sqldb.TableSchema, cols []string) bool {
	for _, c := range cols {
		for _, fk := range sch.ForeignKeys {
			if strings.EqualFold(fk.Column, c) {
				return true
			}
		}
		for _, pk := range sch.PrimaryKey {
			if strings.EqualFold(pk, c) {
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
