package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// RID identifies a row slot within a table. RIDs are dense, start at 0, and
// are never reused; deleted rows leave tombstones. Only a rolled-back
// insert (Undo) gives its rid back, to the next insert. The BANKS graph
// stores only (table, RID) per node, exactly as the paper prescribes.
type RID int64

// Table holds the rows of one relation plus its primary-key index and any
// incrementally-maintained secondary indexes. Tables are not safe for
// concurrent mutation; Database serializes writers.
type Table struct {
	schema *TableSchema
	colIdx map[string]int // lower(name) -> position

	rows [][]Value
	live []bool
	n    int // live row count

	pkCols []int          // positions of primary key columns
	pkIdx  map[string]RID // EncodeRowKey(pk values) -> rid

	// refs[k][rid] is the rid that row rid's k-th foreign key (schema
	// order) references, or -1 for NULL. Database.checkForeignKeys
	// resolves it when the row is written; the delete and key-change
	// restrict rules keep it valid while the row lives.
	refs [][]RID

	// secondary maps column position -> value key -> rids with that
	// value, in rid order. Built on first use, maintained incrementally
	// afterwards. secMu guards it against concurrent lazy builds by
	// readers holding only the database read lock; writers hold the
	// database write lock and take secMu too so the race detector sees a
	// consistent story.
	secMu     sync.Mutex
	secondary map[int]map[string][]RID
}

func newTable(schema *TableSchema) *Table {
	t := &Table{
		schema:    schema,
		colIdx:    make(map[string]int, len(schema.Columns)),
		secondary: make(map[int]map[string][]RID),
	}
	for i, c := range schema.Columns {
		t.colIdx[strings.ToLower(c.Name)] = i
	}
	for _, pk := range schema.PrimaryKey {
		t.pkCols = append(t.pkCols, t.colIdx[strings.ToLower(pk)])
	}
	if len(t.pkCols) > 0 {
		t.pkIdx = make(map[string]RID)
	}
	if n := len(schema.ForeignKeys); n > 0 {
		t.refs = make([][]RID, n)
	}
	return t
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() *TableSchema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.n }

// Cap returns the number of row slots including tombstones.
func (t *Table) Cap() int { return len(t.rows) }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Row returns the row at rid, or nil if the rid is out of range or deleted.
// Callers must not mutate the returned slice.
func (t *Table) Row(rid RID) []Value {
	if rid < 0 || int(rid) >= len(t.rows) || !t.live[rid] {
		return nil
	}
	return t.rows[rid]
}

// Live reports whether rid refers to a live row.
func (t *Table) Live(rid RID) bool {
	return rid >= 0 && int(rid) < len(t.rows) && t.live[rid]
}

// Scan calls fn for every live row in RID order; fn must not mutate the row.
// Returning false from fn stops the scan.
func (t *Table) Scan(fn func(rid RID, row []Value) bool) {
	t.ScanRange(0, RID(len(t.rows)), fn)
}

// Refs returns, indexed by rid, the rid each row's k-th foreign key (in
// schema order) references in its table, or -1 where the key is NULL.
// Entries of deleted rows are stale. The slice is shared: callers must
// not mutate it, and may read it only while no writer is mutating the
// table (readers hold the database read lock).
func (t *Table) Refs(k int) []RID { return t.refs[k] }

// ScanRange calls fn for every live row with lo <= rid < hi, in RID order;
// fn must not mutate the row. Returning false from fn stops the scan. The
// range is clamped to the table, so ScanRange(0, Cap()) equals Scan. The
// sharded graph and index builders use disjoint ranges to scan one table
// from several goroutines; like Scan, this is only safe while no writer is
// mutating the table (readers hold the database read lock).
func (t *Table) ScanRange(lo, hi RID, fn func(rid RID, row []Value) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > RID(len(t.rows)) {
		hi = RID(len(t.rows))
	}
	for i := lo; i < hi; i++ {
		if t.live[i] {
			if !fn(i, t.rows[i]) {
				return
			}
		}
	}
}

func (t *Table) pkKey(row []Value) string {
	var dst []byte
	for _, c := range t.pkCols {
		dst = row[c].EncodeKey(dst)
		dst = append(dst, 0)
	}
	return string(dst)
}

// LookupPK returns the rid of the row whose primary key equals vals, or -1.
func (t *Table) LookupPK(vals []Value) RID {
	if t.pkIdx == nil || len(vals) != len(t.pkCols) {
		return -1
	}
	// Encode into a stack buffer and look up with string(key), which the
	// compiler does without allocating: FK resolution calls this per row.
	var buf [64]byte
	if rid, ok := t.pkIdx[string(appendRowKey(buf[:0], vals))]; ok {
		return rid
	}
	return -1
}

// ensureSecondary builds the secondary index for column position c.
func (t *Table) ensureSecondary(c int) map[string][]RID {
	idx, ok := t.secondary[c]
	if ok {
		return idx
	}
	idx = make(map[string][]RID)
	for i, row := range t.rows {
		if t.live[i] {
			k := row[c].KeyString()
			idx[k] = append(idx[k], RID(i))
		}
	}
	t.secondary[c] = idx
	return idx
}

// LookupEq returns the rids of live rows whose column col equals v, using
// (and building, if needed) a secondary index. The returned slice is shared
// with the index; callers must not mutate it.
func (t *Table) LookupEq(col int, v Value) []RID {
	if col < 0 || col >= len(t.schema.Columns) {
		return nil
	}
	t.secMu.Lock()
	defer t.secMu.Unlock()
	return t.ensureSecondary(col)[v.KeyString()]
}

// coerceRow validates length, coerces each value to the column type, and
// checks NOT NULL constraints. It returns a fresh row slice.
func (t *Table) coerceRow(vals []Value) ([]Value, error) {
	if len(vals) != len(t.schema.Columns) {
		return nil, fmt.Errorf("sqldb: table %s: got %d values, want %d", t.Name(), len(vals), len(t.schema.Columns))
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := v.Convert(t.schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("sqldb: table %s column %s: %w", t.Name(), t.schema.Columns[i].Name, err)
		}
		if cv.IsNull() && t.schema.Columns[i].NotNull {
			return nil, fmt.Errorf("%w: table %s column %s", ErrNotNull, t.Name(), t.schema.Columns[i].Name)
		}
		row[i] = cv
	}
	return row, nil
}

// insert appends a coerced row whose foreign keys resolve to refs, without
// cross-table constraint checks (those are the Database's job) but with
// PK uniqueness enforcement.
func (t *Table) insert(row []Value, refs []RID) (RID, error) {
	if t.pkIdx != nil {
		k := t.pkKey(row)
		if prev, ok := t.pkIdx[k]; ok {
			return -1, fmt.Errorf("%w: table %s, key %s (rid %d)", ErrDuplicateKey, t.Name(), k, prev)
		}
		t.pkIdx[k] = RID(len(t.rows))
	}
	rid := RID(len(t.rows))
	t.rows = append(t.rows, row)
	t.live = append(t.live, true)
	t.n++
	for k, r := range refs {
		t.refs[k] = append(t.refs[k], r)
	}
	t.secMu.Lock()
	for c, idx := range t.secondary {
		k := row[c].KeyString()
		idx[k] = append(idx[k], rid)
	}
	t.secMu.Unlock()
	return rid, nil
}

// delete tombstones the row at rid.
func (t *Table) delete(rid RID) error {
	if !t.Live(rid) {
		return fmt.Errorf("%w: table %s rid %d", ErrNoRow, t.Name(), rid)
	}
	row := t.rows[rid]
	if t.pkIdx != nil {
		delete(t.pkIdx, t.pkKey(row))
	}
	t.secMu.Lock()
	for c, idx := range t.secondary {
		k := row[c].KeyString()
		idx[k] = removeRID(idx[k], rid)
		if len(idx[k]) == 0 {
			delete(idx, k)
		}
	}
	t.secMu.Unlock()
	t.live[rid] = false
	t.n--
	return nil
}

// update replaces the row at rid with a coerced row whose foreign keys
// resolve to refs.
func (t *Table) update(rid RID, row []Value, refs []RID) error {
	if !t.Live(rid) {
		return fmt.Errorf("%w: table %s rid %d", ErrNoRow, t.Name(), rid)
	}
	old := t.rows[rid]
	if t.pkIdx != nil {
		oldK, newK := t.pkKey(old), t.pkKey(row)
		if oldK != newK {
			if prev, ok := t.pkIdx[newK]; ok {
				return fmt.Errorf("%w: table %s, key %s (rid %d)", ErrDuplicateKey, t.Name(), newK, prev)
			}
			delete(t.pkIdx, oldK)
			t.pkIdx[newK] = rid
		}
	}
	t.secMu.Lock()
	for c, idx := range t.secondary {
		ok, nk := old[c].KeyString(), row[c].KeyString()
		if ok != nk {
			idx[ok] = removeRID(idx[ok], rid)
			if len(idx[ok]) == 0 {
				delete(idx, ok)
			}
			idx[nk] = insertRID(idx[nk], rid)
		}
	}
	t.secMu.Unlock()
	t.rows[rid] = row
	for k, r := range refs {
		t.refs[k][rid] = r
	}
	return nil
}

// unappend removes rid, the table's last slot and a live row, as if it
// had never been inserted: an Undo's inverse of an insert.
func (t *Table) unappend(rid RID) {
	_ = t.delete(rid) // cannot fail: the row is live
	t.rows[rid] = nil
	t.rows, t.live = t.rows[:rid], t.live[:rid]
	for k := range t.refs {
		t.refs[k] = t.refs[k][:rid]
	}
}

// revive brings the tombstoned row at rid back with the values and FK
// targets it had: an Undo's inverse of a delete.
func (t *Table) revive(rid RID) {
	row := t.rows[rid]
	if t.pkIdx != nil {
		t.pkIdx[t.pkKey(row)] = rid
	}
	t.secMu.Lock()
	for c, idx := range t.secondary {
		k := row[c].KeyString()
		idx[k] = insertRID(idx[k], rid)
	}
	t.secMu.Unlock()
	t.live[rid] = true
	t.n++
}

// referrers returns the live rows whose k-th foreign key references rid.
func (t *Table) referrers(k int, rid RID) []RID {
	var out []RID
	for r, ref := range t.refs[k] {
		if ref == rid && t.live[r] {
			out = append(out, RID(r))
		}
	}
	return out
}

// insertRID adds rid to s, a list in rid order.
func insertRID(s []RID, rid RID) []RID {
	i, _ := slices.BinarySearch(s, rid)
	return slices.Insert(s, i, rid)
}

func removeRID(s []RID, rid RID) []RID {
	for i, r := range s {
		if r == rid {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
