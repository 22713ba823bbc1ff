package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Database is a catalog of tables with constraint enforcement across them.
// mu serializes data writers against readers; catMu guards only the
// catalog map so that Table and TableNames can be called while holding the
// data read lock (Go RWMutex read locks are not reentrant — a nested RLock
// behind a queued writer deadlocks, and the graph/index builders and the
// executor all resolve tables under RLock).
type Database struct {
	mu     sync.RWMutex
	catMu  sync.RWMutex
	tables map[string]*Table // lower(name) -> table
	order  []string          // creation order (original casing)
	writes uint64            // row and catalog writes so far; see Writes
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Writes counts the writes that reached the database: one per row
// inserted, updated or deleted and per table created or dropped. An Undo
// that rolls back takes it back to where its batch found it.
func (db *Database) Writes() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.writes
}

// RLock / RUnlock expose the read lock for callers (like the graph builder)
// that perform many reads and want a stable snapshot.
func (db *Database) RLock()   { db.mu.RLock() }
func (db *Database) RUnlock() { db.mu.RUnlock() }

// CreateTable validates the schema (including that FK targets exist and are
// single-column primary keys of compatible type) and registers the table.
// Self-referencing foreign keys are allowed.
func (db *Database) CreateTable(schema *TableSchema) (*Table, error) {
	if err := schema.validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(schema.Name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateName, schema.Name)
	}
	for i := range schema.ForeignKeys {
		fk := &schema.ForeignKeys[i]
		var ref *TableSchema
		if strings.EqualFold(fk.RefTable, schema.Name) {
			ref = schema
		} else if rt, ok := db.tables[strings.ToLower(fk.RefTable)]; ok {
			ref = rt.schema
		} else {
			return nil, fmt.Errorf("%w: %s (referenced by %s.%s)", ErrNoTable, fk.RefTable, schema.Name, fk.Column)
		}
		if fk.RefColumn == "" {
			if len(ref.PrimaryKey) == 1 {
				fk.RefColumn = ref.PrimaryKey[0]
			} else {
				return nil, fmt.Errorf("%w: %s", ErrNoPrimaryKey, ref.Name)
			}
		}
		if len(ref.PrimaryKey) != 1 || !strings.EqualFold(ref.PrimaryKey[0], fk.RefColumn) {
			return nil, fmt.Errorf("%w: %s.%s must reference the single-column primary key of %s",
				ErrNoPrimaryKey, schema.Name, fk.Column, ref.Name)
		}
		if fk.Weight == 0 {
			fk.Weight = 1
		}
	}
	t := newTable(schema.Clone())
	db.catMu.Lock()
	db.tables[key] = t
	db.order = append(db.order, schema.Name)
	db.catMu.Unlock()
	db.writes++
	return t, nil
}

// DropTable removes a table. It fails if another table references it.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	for _, other := range db.tables {
		if other == t {
			continue
		}
		for _, fk := range other.schema.ForeignKeys {
			if strings.EqualFold(fk.RefTable, name) {
				return fmt.Errorf("%w: %s is referenced by %s.%s", ErrFKRestrict, name, other.Name(), fk.Column)
			}
		}
	}
	db.catMu.Lock()
	delete(db.tables, key)
	for i, n := range db.order {
		if strings.EqualFold(n, name) {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.catMu.Unlock()
	db.writes++
	return nil
}

// Table returns the named table (case-insensitive), or nil. It takes only
// the catalog lock, so it is safe to call while holding RLock.
func (db *Database) Table(name string) *Table {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns the table names in creation order. Like Table, it is
// safe to call while holding RLock.
func (db *Database) TableNames() []string {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	return append([]string(nil), db.order...)
}

// Insert adds a row after enforcing NOT NULL, primary-key uniqueness and
// foreign-key existence. vals must match the column order of the schema.
func (db *Database) Insert(table string, vals []Value) (RID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(table, vals, nil)
}

func (db *Database) insertLocked(table string, vals []Value, u *Undo) (RID, error) {
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return -1, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	row, err := t.coerceRow(vals)
	if err != nil {
		return -1, err
	}
	var buf [8]RID
	refs, err := db.checkForeignKeys(t, row, -1, buf[:0])
	if err != nil {
		return -1, err
	}
	rid, err := t.insert(row, refs)
	if err == nil {
		db.wrote(u, undoOp{t: t, rid: rid})
	}
	return rid, err
}

// InsertMap adds a row given as column-name -> value; omitted columns are
// NULL.
func (db *Database) InsertMap(table string, m map[string]Value) (RID, error) {
	return db.insertMap(table, m, nil)
}

func (db *Database) insertMap(table string, m map[string]Value, u *Undo) (RID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return -1, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	vals := make([]Value, len(t.schema.Columns))
	for name, v := range m {
		i := t.ColumnIndex(name)
		if i < 0 {
			return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, table, name)
		}
		vals[i] = v
	}
	return db.insertLocked(table, vals, u)
}

// checkForeignKeys resolves every foreign key of row, a coerced row of t,
// to the rid it references (-1 for NULL), appending them to refs in
// schema order; a value with no match is an ErrFKViolation. self is the
// rid of a row whose primary key the write changes (else -1): such a row
// may not reference itself, because its old key is gone after the write.
func (db *Database) checkForeignKeys(t *Table, row []Value, self RID, refs []RID) ([]RID, error) {
	for _, fk := range t.schema.ForeignKeys {
		v := row[t.ColumnIndex(fk.Column)]
		if v.IsNull() {
			refs = append(refs, -1) // NULL FK values are permitted (no edge)
			continue
		}
		ref := db.tables[strings.ToLower(fk.RefTable)]
		if ref == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoTable, fk.RefTable)
		}
		cv, err := v.Convert(ref.schema.Columns[ref.pkCols[0]].Type)
		if err != nil {
			return nil, fmt.Errorf("%w: %s.%s -> %s: %v", ErrFKViolation, t.Name(), fk.Column, fk.RefTable, err)
		}
		rid := ref.LookupPK([]Value{cv})
		if rid < 0 || ref == t && rid == self {
			return nil, fmt.Errorf("%w: %s.%s = %s has no match in %s.%s",
				ErrFKViolation, t.Name(), fk.Column, v, fk.RefTable, fk.RefColumn)
		}
		refs = append(refs, rid)
	}
	return refs, nil
}

// Delete removes the row at rid, failing with ErrFKRestrict when other live
// rows reference it.
func (db *Database) Delete(table string, rid RID) error { return db.delete(table, rid, nil) }

func (db *Database) delete(table string, rid RID, u *Undo) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if !t.Live(rid) {
		return fmt.Errorf("%w: table %s rid %d", ErrNoRow, table, rid)
	}
	if refs := db.referencingLocked(t, rid, 1); len(refs) > 0 {
		return fmt.Errorf("%w: %s rid %d referenced by %s.%s",
			ErrFKRestrict, table, rid, refs[0].Table, refs[0].Column)
	}
	if err := t.delete(rid); err != nil {
		return err
	}
	db.wrote(u, undoOp{t: t, rid: rid, deleted: true})
	return nil
}

// Update modifies the named columns of the row at rid, enforcing all
// constraints. Updating a primary key that other rows reference fails with
// ErrFKRestrict.
func (db *Database) Update(table string, rid RID, set map[string]Value) error {
	return db.update(table, rid, set, nil)
}

func (db *Database) update(table string, rid RID, set map[string]Value, u *Undo) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	old := t.Row(rid)
	if old == nil {
		return fmt.Errorf("%w: table %s rid %d", ErrNoRow, table, rid)
	}
	row := append([]Value(nil), old...)
	pkChanged := false
	for name, v := range set {
		i := t.ColumnIndex(name)
		if i < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, table, name)
		}
		row[i] = v
		for _, pc := range t.pkCols {
			if pc == i {
				pkChanged = true
			}
		}
	}
	row, err := t.coerceRow(row)
	if err != nil {
		return err
	}
	self := RID(-1)
	if pkChanged {
		if refs := db.referencingLocked(t, rid, 1); len(refs) > 0 {
			return fmt.Errorf("%w: cannot change key of %s rid %d (referenced by %s.%s)",
				ErrFKRestrict, table, rid, refs[0].Table, refs[0].Column)
		}
		self = rid
	}
	var buf [8]RID
	refs, err := db.checkForeignKeys(t, row, self, buf[:0])
	if err != nil {
		return err
	}
	op := undoOp{t: t, rid: rid, row: old}
	if u != nil {
		for k := range t.refs {
			op.refs = append(op.refs, t.refs[k][rid])
		}
	}
	if err := t.update(rid, row, refs); err != nil {
		return err
	}
	db.wrote(u, op)
	return nil
}

// Reference describes one incoming foreign-key reference to a tuple: the
// referencing table, its FK column, and the rids of the referencing rows.
// This powers both delete-restrict checks and the paper's backward browsing
// ("primary key columns can be browsed backwards, to find referencing
// tuples, organized by referencing relations").
type Reference struct {
	Table  string
	Column string
	RIDs   []RID
}

// Referencing returns, grouped by (table, column), all live rows that
// reference the tuple at (table, rid) through a foreign key.
func (db *Database) Referencing(table string, rid RID) []Reference {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok || !t.Live(rid) {
		return nil
	}
	return db.referencingLocked(t, rid, 0)
}

// referencingLocked gathers references; if limit > 0 it stops after that
// many groups (cheap existence checks for restrict enforcement).
func (db *Database) referencingLocked(t *Table, rid RID, limit int) []Reference {
	if len(t.pkCols) != 1 {
		return nil
	}
	pkVal := t.rows[rid][t.pkCols[0]]
	var out []Reference
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		other := db.tables[n]
		for k, fk := range other.schema.ForeignKeys {
			if !strings.EqualFold(fk.RefTable, t.Name()) {
				continue
			}
			// A column of the key's own type holds exactly the values
			// that resolve to it, so its secondary index answers. Across
			// types it does not ("01" resolves to INT 1, but 1 reads
			// back as "1"), so the resolved refs are scanned instead.
			var rids []RID
			if ci := other.ColumnIndex(fk.Column); other.schema.Columns[ci].Type == pkVal.T {
				rids = append(rids, other.LookupEq(ci, pkVal)...)
			} else {
				rids = other.referrers(k, rid)
			}
			if len(rids) > 0 {
				out = append(out, Reference{Table: other.Name(), Column: fk.Column, RIDs: rids})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// Stats summarizes the database contents.
type Stats struct {
	Tables int
	Rows   int
	FKs    int
}

// Stats returns table/row/foreign-key counts.
func (db *Database) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var s Stats
	s.Tables = len(db.tables)
	for _, t := range db.tables {
		s.Rows += t.Len()
		s.FKs += len(t.schema.ForeignKeys)
	}
	return s
}
