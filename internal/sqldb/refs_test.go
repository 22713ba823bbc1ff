package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// newRefsDB builds the schema TestRefsInvariant writes to: dept; emp,
// whose boss is a self-referencing FK and whose mentor is a TEXT column
// referencing emp's INT key (so "07" and "+7" resolve to 7); and assign,
// a rowid-only table of two FKs.
func newRefsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	for _, s := range []*TableSchema{{
		Name:       "dept",
		Columns:    []Column{{Name: "id", Type: TypeInt, NotNull: true}, {Name: "name", Type: TypeText}},
		PrimaryKey: []string{"id"},
	}, {
		Name: "emp",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true}, {Name: "dept", Type: TypeInt},
			{Name: "boss", Type: TypeInt}, {Name: "mentor", Type: TypeText},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{
			{Column: "dept", RefTable: "dept"},
			{Column: "boss", RefTable: "emp"},
			{Column: "mentor", RefTable: "emp"},
		},
	}, {
		Name:    "assign",
		Columns: []Column{{Name: "emp", Type: TypeInt}, {Name: "dept", Type: TypeInt}},
		ForeignKeys: []ForeignKey{
			{Column: "emp", RefTable: "emp"},
			{Column: "dept", RefTable: "dept"},
		},
	}} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// checkRefs reports the first live row whose resolved FK target
// (Table.Refs) is not what resolving its value now gives, or the first
// built secondary index that differs from a fresh build (lists in rid
// order). The caller holds the read lock.
func checkRefs(db *Database) error {
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		tbl.secMu.Lock()
		for c, idx := range tbl.secondary {
			delete(tbl.secondary, c)
			fresh := tbl.ensureSecondary(c)
			tbl.secondary[c] = idx
			if fmt.Sprint(fresh) != fmt.Sprint(idx) {
				tbl.secMu.Unlock()
				return fmt.Errorf("%s column %d: secondary index %v, a fresh build gives %v", name, c, idx, fresh)
			}
		}
		tbl.secMu.Unlock()
		for k, fk := range tbl.Schema().ForeignKeys {
			ref := db.Table(fk.RefTable)
			refs := tbl.Refs(k)
			if len(refs) != tbl.Cap() {
				return fmt.Errorf("%s.%s: %d refs for %d rows", name, fk.Column, len(refs), tbl.Cap())
			}
			col, pkType := tbl.ColumnIndex(fk.Column), ref.Schema().Columns[ref.pkCols[0]].Type
			var err error
			tbl.Scan(func(rid RID, row []Value) bool {
				want := RID(-1)
				if v := row[col]; !v.IsNull() {
					cv, cerr := v.Convert(pkType)
					if want = ref.LookupPK([]Value{cv}); cerr != nil || want < 0 {
						err = fmt.Errorf("%s rid %d: %s = %s resolves to nothing", name, rid, fk.Column, v)
						return false
					}
				}
				if refs[rid] != want {
					err = fmt.Errorf("%s rid %d: Refs(%d) = %d, resolving %s gives %d", name, rid, k, refs[rid], row[col], want)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// dumpState renders every slot of every table (tombstones and refs
// included), every primary-key index entry and every built secondary
// index, so that two dumps differ if a write changed anything at all.
func dumpState(db *Database) string {
	db.RLock()
	defer db.RUnlock()
	var b strings.Builder
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		fmt.Fprintf(&b, "%s n=%d", name, tbl.n)
		for k := range tbl.refs {
			fmt.Fprintf(&b, " refs(%d)=%d", k, len(tbl.refs[k]))
		}
		b.WriteByte('\n')
		for rid, row := range tbl.rows {
			fmt.Fprintf(&b, "%d %t", rid, tbl.live[rid])
			for _, v := range row {
				fmt.Fprintf(&b, " %s:%s", v.T, v)
			}
			for k := range tbl.refs {
				fmt.Fprintf(&b, " ->%d", tbl.refs[k][rid])
			}
			b.WriteByte('\n')
		}
		keys := make([]string, 0, len(tbl.pkIdx))
		for k, rid := range tbl.pkIdx {
			keys = append(keys, fmt.Sprintf("%q=%d", k, rid))
		}
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, " "))
		b.WriteByte('\n')
		tbl.secMu.Lock()
		keys = keys[:0]
		for c, idx := range tbl.secondary {
			for k, rids := range idx {
				keys = append(keys, fmt.Sprintf("%d:%q=%v", c, k, rids))
			}
		}
		tbl.secMu.Unlock()
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// writer is the write surface TestRefsInvariant drives: the Database's
// own, or an Undo's over it.
type writer interface {
	InsertMap(table string, m map[string]Value) (RID, error)
	Update(table string, rid RID, set map[string]Value) error
	Delete(table string, rid RID) error
}

// TestRefsInvariant runs a seeded random sequence of inserts, updates and
// deletes, many of them rejected, and checks after every step that each
// live row's Refs entries equal what resolving its FK values gives, and
// that a rejected write changed nothing. Some steps are batches of 1–4
// writes through an Undo that end in a deliberate failure and are rolled
// back; each must leave the database exactly as before the batch. A
// reader goroutine checks the same under the read lock while the writes
// run, as an engine build reads Refs.
func TestRefsInvariant(t *testing.T) {
	db := newRefsDB(t)
	rng := rand.New(rand.NewSource(44))
	// Build the secondary indexes the restrict checks use up front, so a
	// rejected write cannot differ from its before-state by building one.
	for _, c := range []struct{ table, col string }{{"emp", "dept"}, {"emp", "boss"}, {"assign", "emp"}, {"assign", "dept"}} {
		tbl := db.Table(c.table)
		tbl.LookupEq(tbl.ColumnIndex(c.col), Null())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.RLock()
			err := checkRefs(db)
			db.RUnlock()
			if err != nil {
				t.Errorf("concurrent reader: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	// Small key spaces make duplicates, dangling references and
	// restricted deletes common.
	intOrNull := func(n int) Value {
		if rng.Intn(4) == 0 {
			return Null()
		}
		return Int(int64(rng.Intn(n)))
	}
	mentor := func() Value {
		switch rng.Intn(7) {
		case 0, 6:
			return Null()
		case 1:
			return Text("nobody") // never converts: an FK violation
		case 2:
			return Text(fmt.Sprintf("0%d", rng.Intn(24)))
		case 3:
			return Text(fmt.Sprintf("+%d", rng.Intn(24)))
		}
		return Text(fmt.Sprint(rng.Intn(24)))
	}
	// randRID picks a live row of table, or now and then any slot, live,
	// deleted or past the end.
	randRID := func(table string) RID {
		tbl := db.Table(table)
		if tbl.Len() == 0 || rng.Intn(8) == 0 {
			return RID(rng.Intn(tbl.Cap() + 1))
		}
		for {
			if rid := RID(rng.Intn(tbl.Cap())); tbl.Live(rid) {
				return rid
			}
		}
	}

	// write makes one random write through w.
	write := func(w writer) (op string, err error) {
		switch r := rng.Intn(10); {
		case r < 2:
			op = "insert dept"
			_, err = w.InsertMap("dept", map[string]Value{"id": Int(int64(rng.Intn(12))), "name": Text("d")})
		case r < 4:
			op = "insert emp"
			boss := Null()
			if rng.Intn(2) == 0 {
				boss = Int(int64(rng.Intn(24)))
			}
			_, err = w.InsertMap("emp", map[string]Value{"id": Int(int64(rng.Intn(24))), "dept": intOrNull(14), "boss": boss, "mentor": mentor()})
		case r < 5:
			op = "insert assign"
			_, err = w.InsertMap("assign", map[string]Value{"emp": intOrNull(24), "dept": intOrNull(14)})
		case r < 7:
			op = "update emp fks"
			set := map[string]Value{}
			for _, c := range []string{"dept", "boss", "mentor"} {
				if rng.Intn(2) == 0 {
					switch c {
					case "dept":
						set[c] = intOrNull(14)
					case "boss":
						set[c] = intOrNull(24)
					default:
						set[c] = mentor()
					}
				}
			}
			err = w.Update("emp", randRID("emp"), set)
		case r < 8:
			// A key change, sometimes with boss set to the row's own
			// old key, which the new key would leave dangling.
			table := []string{"dept", "emp"}[rng.Intn(2)]
			rid := randRID(table)
			set := map[string]Value{"id": Int(int64(rng.Intn(24)))}
			if row := db.Table(table).Row(rid); table == "emp" && row != nil && rng.Intn(3) == 0 {
				set["boss"] = row[0]
			}
			op = "update " + table + " key"
			err = w.Update(table, rid, set)
		default:
			table := []string{"dept", "emp", "assign"}[rng.Intn(3)]
			op = "delete " + table
			err = w.Delete(table, randRID(table))
		}
		return op, err
	}

	outcomes := make(map[string]int)
	for step := 0; step < 2000; step++ {
		before := dumpState(db)
		if rng.Intn(6) == 0 {
			// A batch of 1–4 writes whose last one fails on purpose (a
			// delete past the table's end), rolled back.
			u := db.Begin()
			var undone []string
			for n := rng.Intn(4); n > 0; n-- {
				if op, err := write(u); err == nil {
					undone = append(undone, "undone "+strings.Fields(op)[0])
				}
			}
			if err := u.Delete("dept", RID(db.Table("dept").Cap())); !errors.Is(err, ErrNoRow) {
				t.Fatalf("step %d: deliberate failure gave %v", step, err)
			}
			// Now and then a plain write is tried inside the batch. If it
			// lands, the rollback must refuse and change nothing; if it is
			// rejected, it wrote nothing and the rollback goes ahead.
			if len(undone) > 0 && rng.Intn(8) == 0 {
				if _, err := write(db); err == nil {
					mid := dumpState(db)
					if err := u.Rollback(); err == nil {
						t.Fatalf("step %d: rollback over an interleaved write succeeded", step)
					}
					db.RLock()
					cerr := checkRefs(db)
					db.RUnlock()
					if after := dumpState(db); after != mid || cerr != nil {
						t.Fatalf("step %d: refused rollback changed the database (%v)", step, cerr)
					}
					outcomes["rollback refused"]++
					continue
				}
			}
			for _, o := range undone {
				outcomes[o]++
			}
			if err := u.Rollback(); err != nil {
				t.Fatalf("step %d: rollback: %v", step, err)
			}
			if after := dumpState(db); after != before {
				t.Fatalf("step %d: rolled back, but the database changed:\nbefore\n%s\nafter\n%s", step, before, after)
			}
			outcomes["rolled back"]++
			continue
		}
		op, err := write(db)
		switch {
		case err == nil:
			outcomes[op]++
		case errors.Is(err, ErrFKViolation):
			outcomes["fk violation"]++
		case errors.Is(err, ErrDuplicateKey):
			outcomes["duplicate key"]++
		case errors.Is(err, ErrFKRestrict):
			outcomes["restrict"]++
		case errors.Is(err, ErrNoRow):
			outcomes["no row"]++
		default:
			t.Fatalf("step %d %s: unexpected error %v", step, op, err)
		}
		if err != nil {
			if after := dumpState(db); after != before {
				t.Fatalf("step %d %s: rejected (%v) but changed the database:\nbefore\n%s\nafter\n%s", step, op, err, before, after)
			}
		}
		db.RLock()
		cerr := checkRefs(db)
		db.RUnlock()
		if cerr != nil {
			t.Fatalf("step %d %s (err %v): %v", step, op, err, cerr)
		}
	}
	for _, o := range []string{
		"insert dept", "insert emp", "insert assign", "update emp fks", "update dept key", "update emp key",
		"delete dept", "delete emp", "delete assign", "fk violation", "duplicate key", "restrict", "no row",
		"rolled back", "undone insert", "undone update", "undone delete", "rollback refused",
	} {
		if outcomes[o] == 0 {
			t.Errorf("the sequence never produced %q: %v", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}
