package sqldb

import "errors"

// Undo is the undo log of one batch of writes. Its InsertMap, Update and
// Delete are the Database's own writes, with the same checks; each one
// that succeeds records its inverse, and Rollback undoes them, last
// first: an insert is cut off the table's tail (its rid goes to the next
// insert, as if the batch had never run), a delete revives its
// tombstone, an update restores the old row and FK targets. The
// primary-key and built secondary indexes follow. Each write holds the
// write lock only for itself, so readers may see the batch's rows before
// a rollback.
type Undo struct {
	db   *Database
	ops  []undoOp
	base uint64 // db.writes before the first recorded write
}

type undoOp struct {
	t       *Table
	rid     RID
	deleted bool
	row     []Value // an update's old row; nil for inserts and deletes
	refs    []RID   // an update's old FK targets
}

// Begin starts an empty undo log on db.
func (db *Database) Begin() *Undo { return &Undo{db: db} }

// wrote counts one successful write and records its inverse in u, if
// any. Callers hold the write lock.
func (db *Database) wrote(u *Undo, op undoOp) {
	db.writes++
	if u != nil {
		if len(u.ops) == 0 {
			u.base = db.writes - 1
		}
		u.ops = append(u.ops, op)
	}
}

// InsertMap is Database.InsertMap, recorded.
func (u *Undo) InsertMap(table string, m map[string]Value) (RID, error) {
	return u.db.insertMap(table, m, u)
}

// Update is Database.Update, recorded.
func (u *Undo) Update(table string, rid RID, set map[string]Value) error {
	return u.db.update(table, rid, set, u)
}

// Delete is Database.Delete, recorded.
func (u *Undo) Delete(table string, rid RID) error { return u.db.delete(table, rid, u) }

// Len returns how many writes the log has recorded.
func (u *Undo) Len() int { return len(u.ops) }

// Rollback undoes the recorded writes in reverse order, write counter
// included, and empties the log. It refuses, changing nothing, if any other write
// reached the database since the log's first one.
func (u *Undo) Rollback() error {
	u.db.mu.Lock()
	defer u.db.mu.Unlock()
	if len(u.ops) > 0 && u.db.writes-u.base != uint64(len(u.ops)) {
		return errors.New("sqldb: rollback: another write reached the database during the batch")
	}
	for i := len(u.ops) - 1; i >= 0; i-- {
		switch op := &u.ops[i]; {
		case op.row != nil:
			// Cannot fail: the batch's later writes, the only ones that
			// could have taken the old key, are already undone.
			_ = op.t.update(op.rid, op.row, op.refs)
		case op.deleted:
			op.t.revive(op.rid)
		default:
			op.t.unappend(op.rid)
		}
	}
	if len(u.ops) > 0 {
		u.db.writes = u.base
	}
	u.ops = nil
	return nil
}
