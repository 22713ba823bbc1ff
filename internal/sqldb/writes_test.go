package sqldb

import "testing"

// TestWritesCounter pins the write counter's contract: every row write
// and every CREATE or DROP TABLE adds one, a rejected write adds
// nothing, a rollback that succeeds takes the counter back to where its
// batch found it, and a refused rollback leaves it where it is.
func TestWritesCounter(t *testing.T) {
	db := newBibDB(t)
	want := uint64(4) // newBibDB's four CREATE TABLEs
	count := func(what string, add int) {
		t.Helper()
		want = uint64(int(want) + add)
		if got := db.Writes(); got != want {
			t.Fatalf("%s: Writes() = %d, want %d", what, got, want)
		}
	}
	accepted := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		count(what, 1)
	}
	rejected := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted, want a rejection", what)
		}
		count(what, 0)
	}
	count("tables created", 0)

	p1, err := db.InsertMap("Paper", map[string]Value{"PaperId": Text("P1"), "PaperName": Text("one")})
	accepted("insert", err)
	_, err = db.Insert("Author", []Value{Text("A1"), Text("ann")})
	accepted("insert by position", err)
	w1, err := db.InsertMap("Writes", map[string]Value{"AuthorId": Text("A1"), "PaperId": Text("P1")})
	accepted("insert with foreign keys", err)
	accepted("update", db.Update("Paper", p1, map[string]Value{"PaperName": Text("uno")}))
	accepted("delete", db.Delete("Writes", w1))

	_, err = db.InsertMap("Paper", map[string]Value{"PaperId": Text("P1")})
	rejected("duplicate key", err)
	_, err = db.InsertMap("Writes", map[string]Value{"AuthorId": Text("nobody")})
	rejected("dangling foreign key", err)
	rejected("update of a missing row", db.Update("Paper", 99, map[string]Value{"PaperName": Text("x")}))
	rejected("delete of a deleted row", db.Delete("Writes", w1))
	_, err = db.CreateTable(&TableSchema{Name: "paper", Columns: []Column{{Name: "x", Type: TypeInt}}})
	rejected("duplicate table", err)
	rejected("drop of a referenced table", db.DropTable("Paper"))
	rejected("drop of a missing table", db.DropTable("Venue"))

	_, err = db.CreateTable(&TableSchema{Name: "Venue", Columns: []Column{{Name: "name", Type: TypeText}}})
	accepted("create table", err)
	accepted("drop table", db.DropTable("Venue"))

	// A batch that rolls back leaves the counter where it found it.
	u := db.Begin()
	_, err = u.InsertMap("Paper", map[string]Value{"PaperId": Text("P2")})
	accepted("batch insert", err)
	accepted("batch update", u.Update("Paper", p1, map[string]Value{"PaperName": Text("eins")}))
	if u.Len() != 2 {
		t.Fatalf("undo log recorded %d writes, want 2", u.Len())
	}
	if err := u.Rollback(); err != nil {
		t.Fatal(err)
	}
	count("rollback", -2)

	// A rollback refused because another write landed changes nothing,
	// the counter included.
	u = db.Begin()
	_, err = u.InsertMap("Paper", map[string]Value{"PaperId": Text("P3")})
	accepted("batch insert", err)
	_, err = db.InsertMap("Author", map[string]Value{"AuthorId": Text("A2")})
	accepted("foreign insert", err)
	if err := u.Rollback(); err == nil {
		t.Fatal("rollback over a foreign write accepted")
	}
	count("refused rollback", 0)

	// An empty log has nothing to undo and leaves the counter alone.
	if err := db.Begin().Rollback(); err != nil {
		t.Fatal(err)
	}
	count("empty rollback", 0)
}
