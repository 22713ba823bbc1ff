package sqldb

import (
	"errors"
	"fmt"
	"testing"
)

// newBibDB builds the Figure 1 DBLP schema used throughout the tests:
// Paper(PaperId PK, PaperName), Author(AuthorId PK, AuthorName),
// Writes(AuthorId FK, PaperId FK), Cites(Citing FK, Cited FK).
func newBibDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustCreate := func(s *TableSchema) {
		t.Helper()
		if _, err := db.CreateTable(s); err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
	}
	mustCreate(&TableSchema{
		Name: "Paper",
		Columns: []Column{
			{Name: "PaperId", Type: TypeText, NotNull: true},
			{Name: "PaperName", Type: TypeText},
		},
		PrimaryKey: []string{"PaperId"},
	})
	mustCreate(&TableSchema{
		Name: "Author",
		Columns: []Column{
			{Name: "AuthorId", Type: TypeText, NotNull: true},
			{Name: "AuthorName", Type: TypeText},
		},
		PrimaryKey: []string{"AuthorId"},
	})
	mustCreate(&TableSchema{
		Name: "Writes",
		Columns: []Column{
			{Name: "AuthorId", Type: TypeText},
			{Name: "PaperId", Type: TypeText},
		},
		ForeignKeys: []ForeignKey{
			{Column: "AuthorId", RefTable: "Author"},
			{Column: "PaperId", RefTable: "Paper"},
		},
	})
	mustCreate(&TableSchema{
		Name: "Cites",
		Columns: []Column{
			{Name: "Citing", Type: TypeText},
			{Name: "Cited", Type: TypeText},
		},
		ForeignKeys: []ForeignKey{
			{Column: "Citing", RefTable: "Paper", Weight: 2},
			{Column: "Cited", RefTable: "Paper", Weight: 2},
		},
	})
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable(&TableSchema{Name: "t"}); err == nil {
		t.Error("table with no columns should fail")
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:    "t",
		Columns: []Column{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}},
	}); err == nil {
		t.Error("duplicate column (case-insensitive) should fail")
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:       "t",
		Columns:    []Column{{Name: "a", Type: TypeInt}},
		PrimaryKey: []string{"b"},
	}); err == nil {
		t.Error("PK on missing column should fail")
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:        "t",
		Columns:     []Column{{Name: "a", Type: TypeInt}},
		ForeignKeys: []ForeignKey{{Column: "a", RefTable: "nosuch"}},
	}); err == nil {
		t.Error("FK to missing table should fail")
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := NewDatabase()
	s := &TableSchema{Name: "T", Columns: []Column{{Name: "a", Type: TypeInt}}}
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(&TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("want ErrDuplicateName, got %v", err)
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := newBibDB(t)
	rid, err := db.Insert("Paper", []Value{Text("GrayR93"), Text("Transaction Processing")})
	if err != nil {
		t.Fatal(err)
	}
	p := db.Table("paper") // case-insensitive
	if p == nil {
		t.Fatal("Table(paper) = nil")
	}
	row := p.Row(rid)
	if row == nil || row[1].S != "Transaction Processing" {
		t.Fatalf("Row(%d) = %v", rid, row)
	}
	if got := p.LookupPK([]Value{Text("GrayR93")}); got != rid {
		t.Errorf("LookupPK = %d, want %d", got, rid)
	}
	if got := p.LookupPK([]Value{Text("nope")}); got != -1 {
		t.Errorf("LookupPK(missing) = %d, want -1", got)
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	db := newBibDB(t)
	if _, err := db.Insert("Author", []Value{Text("a1"), Text("X")}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Insert("Author", []Value{Text("a1"), Text("Y")})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("want ErrDuplicateKey, got %v", err)
	}
}

func TestInsertFKEnforcement(t *testing.T) {
	db := newBibDB(t)
	if _, err := db.Insert("Writes", []Value{Text("a1"), Text("p1")}); !errors.Is(err, ErrFKViolation) {
		t.Errorf("dangling FK insert: want ErrFKViolation, got %v", err)
	}
	if _, err := db.Insert("Author", []Value{Text("a1"), Text("X")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("Paper", []Value{Text("p1"), Text("T")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("Writes", []Value{Text("a1"), Text("p1")}); err != nil {
		t.Errorf("valid FK insert failed: %v", err)
	}
	// NULL FK is allowed (no edge).
	if _, err := db.Insert("Writes", []Value{Null(), Text("p1")}); err != nil {
		t.Errorf("NULL FK insert failed: %v", err)
	}
}

func TestInsertNotNull(t *testing.T) {
	db := newBibDB(t)
	if _, err := db.Insert("Paper", []Value{Null(), Text("T")}); !errors.Is(err, ErrNotNull) {
		t.Errorf("want ErrNotNull, got %v", err)
	}
}

func TestDeleteRestrict(t *testing.T) {
	db := newBibDB(t)
	aRID, _ := db.Insert("Author", []Value{Text("a1"), Text("X")})
	pRID, _ := db.Insert("Paper", []Value{Text("p1"), Text("T")})
	wRID, _ := db.Insert("Writes", []Value{Text("a1"), Text("p1")})

	if err := db.Delete("Author", aRID); !errors.Is(err, ErrFKRestrict) {
		t.Errorf("deleting referenced author: want ErrFKRestrict, got %v", err)
	}
	if err := db.Delete("Writes", wRID); err != nil {
		t.Fatalf("deleting writes row: %v", err)
	}
	if err := db.Delete("Author", aRID); err != nil {
		t.Errorf("deleting now-unreferenced author: %v", err)
	}
	if err := db.Delete("Paper", pRID); err != nil {
		t.Errorf("deleting paper: %v", err)
	}
	if db.Table("Author").Len() != 0 || db.Table("Paper").Len() != 0 {
		t.Error("tables should be empty after deletes")
	}
}

func TestDeleteTombstoneNoReuse(t *testing.T) {
	db := newBibDB(t)
	r1, _ := db.Insert("Author", []Value{Text("a1"), Text("X")})
	if err := db.Delete("Author", r1); err != nil {
		t.Fatal(err)
	}
	r2, _ := db.Insert("Author", []Value{Text("a2"), Text("Y")})
	if r2 == r1 {
		t.Error("RIDs must not be reused")
	}
	if db.Table("Author").Row(r1) != nil {
		t.Error("deleted row should be invisible")
	}
}

func TestUpdate(t *testing.T) {
	db := newBibDB(t)
	rid, _ := db.Insert("Author", []Value{Text("a1"), Text("X")})
	if err := db.Update("Author", rid, map[string]Value{"AuthorName": Text("Y")}); err != nil {
		t.Fatal(err)
	}
	if got := db.Table("Author").Row(rid)[1].S; got != "Y" {
		t.Errorf("after update, name = %q", got)
	}
	// Changing a referenced PK must be restricted.
	db.Insert("Paper", []Value{Text("p1"), Text("T")})
	db.Insert("Writes", []Value{Text("a1"), Text("p1")})
	err := db.Update("Author", rid, map[string]Value{"AuthorId": Text("a9")})
	if !errors.Is(err, ErrFKRestrict) {
		t.Errorf("want ErrFKRestrict, got %v", err)
	}
	// Updating an FK column to a dangling value must fail.
	w := db.Table("Writes")
	var wrid RID = -1
	w.Scan(func(r RID, _ []Value) bool { wrid = r; return false })
	if err := db.Update("Writes", wrid, map[string]Value{"PaperId": Text("nope")}); !errors.Is(err, ErrFKViolation) {
		t.Errorf("want ErrFKViolation, got %v", err)
	}
}

func TestUpdatePKReindex(t *testing.T) {
	db := newBibDB(t)
	rid, _ := db.Insert("Author", []Value{Text("a1"), Text("X")})
	if err := db.Update("Author", rid, map[string]Value{"AuthorId": Text("a2")}); err != nil {
		t.Fatal(err)
	}
	a := db.Table("Author")
	if a.LookupPK([]Value{Text("a1")}) != -1 {
		t.Error("old key still indexed")
	}
	if a.LookupPK([]Value{Text("a2")}) != rid {
		t.Error("new key not indexed")
	}
}

func TestReferencing(t *testing.T) {
	db := newBibDB(t)
	db.Insert("Author", []Value{Text("a1"), Text("X")})
	pRID, _ := db.Insert("Paper", []Value{Text("p1"), Text("T")})
	db.Insert("Paper", []Value{Text("p2"), Text("U")})
	db.Insert("Writes", []Value{Text("a1"), Text("p1")})
	db.Insert("Cites", []Value{Text("p2"), Text("p1")})

	refs := db.Referencing("Paper", pRID)
	if len(refs) != 2 {
		t.Fatalf("Referencing = %v, want 2 groups", refs)
	}
	byKey := make(map[string]int)
	for _, r := range refs {
		byKey[r.Table+"."+r.Column] = len(r.RIDs)
	}
	if byKey["Cites.Cited"] != 1 || byKey["Writes.PaperId"] != 1 {
		t.Errorf("Referencing groups = %v", byKey)
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	db := newBibDB(t)
	db.Insert("Author", []Value{Text("a1"), Text("X")})
	db.Insert("Paper", []Value{Text("p1"), Text("T")})
	w := db.Table("Writes")
	ci := w.ColumnIndex("PaperId")

	// Build the index while empty, then verify incremental maintenance.
	if got := w.LookupEq(ci, Text("p1")); len(got) != 0 {
		t.Fatalf("LookupEq on empty = %v", got)
	}
	r1, _ := db.Insert("Writes", []Value{Text("a1"), Text("p1")})
	r2, _ := db.Insert("Writes", []Value{Text("a1"), Text("p1")})
	if got := w.LookupEq(ci, Text("p1")); len(got) != 2 {
		t.Fatalf("LookupEq after inserts = %v", got)
	}
	if err := db.Delete("Writes", r1); err != nil {
		t.Fatal(err)
	}
	got := w.LookupEq(ci, Text("p1"))
	if len(got) != 1 || got[0] != r2 {
		t.Fatalf("LookupEq after delete = %v, want [%d]", got, r2)
	}
	// An update keeps the lists in rid order, as a fresh build has them.
	db.Insert("Paper", []Value{Text("p2"), Text("U")})
	r3, _ := db.Insert("Writes", []Value{Text("a1"), Text("p2")})
	if err := db.Update("Writes", r3, map[string]Value{"PaperId": Text("p1")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Writes", r2, map[string]Value{"PaperId": Text("p2")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Writes", r2, map[string]Value{"PaperId": Text("p1")}); err != nil {
		t.Fatal(err)
	}
	if got := w.LookupEq(ci, Text("p1")); fmt.Sprint(got) != fmt.Sprint([]RID{r2, r3}) {
		t.Fatalf("LookupEq after updates = %v, want [%d %d]", got, r2, r3)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := newBibDB(t)
	for i := 0; i < 5; i++ {
		db.Insert("Author", []Value{Text(fmt.Sprintf("a%d", i)), Text("X")})
	}
	var seen []RID
	db.Table("Author").Scan(func(rid RID, _ []Value) bool {
		seen = append(seen, rid)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("scan order = %v", seen)
	}
}

func TestDropTable(t *testing.T) {
	db := newBibDB(t)
	if err := db.DropTable("Paper"); !errors.Is(err, ErrFKRestrict) {
		t.Errorf("dropping referenced table: want ErrFKRestrict, got %v", err)
	}
	if err := db.DropTable("Cites"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("Writes"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("Paper"); err != nil {
		t.Errorf("dropping Paper after its referencers: %v", err)
	}
	if db.Table("Paper") != nil {
		t.Error("dropped table still visible")
	}
	if err := db.DropTable("Paper"); !errors.Is(err, ErrNoTable) {
		t.Errorf("want ErrNoTable, got %v", err)
	}
}

func TestTableNamesOrder(t *testing.T) {
	db := newBibDB(t)
	want := []string{"Paper", "Author", "Writes", "Cites"}
	got := db.TableNames()
	if len(got) != len(want) {
		t.Fatalf("TableNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TableNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestInsertMap(t *testing.T) {
	db := newBibDB(t)
	rid, err := db.InsertMap("Paper", map[string]Value{"paperid": Text("p1")})
	if err != nil {
		t.Fatal(err)
	}
	row := db.Table("Paper").Row(rid)
	if !row[1].IsNull() {
		t.Errorf("omitted column should be NULL, got %v", row[1])
	}
	if _, err := db.InsertMap("Paper", map[string]Value{"bogus": Text("x")}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("want ErrNoColumn, got %v", err)
	}
}

func TestSelfReferencingFK(t *testing.T) {
	db := NewDatabase()
	_, err := db.CreateTable(&TableSchema{
		Name: "emp",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "boss", Type: TypeInt},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "boss", RefTable: "emp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("emp", []Value{Int(1), Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("emp", []Value{Int(2), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("emp", []Value{Int(3), Int(99)}); !errors.Is(err, ErrFKViolation) {
		t.Errorf("want ErrFKViolation, got %v", err)
	}
}

func TestFKDefaultWeightAndRefColumn(t *testing.T) {
	db := newBibDB(t)
	w := db.Table("Writes").Schema()
	for _, fk := range w.ForeignKeys {
		if fk.Weight != 1 {
			t.Errorf("default FK weight = %v, want 1", fk.Weight)
		}
		if fk.RefColumn == "" {
			t.Error("RefColumn should be resolved to the PK")
		}
	}
	c := db.Table("Cites").Schema()
	for _, fk := range c.ForeignKeys {
		if fk.Weight != 2 {
			t.Errorf("Cites FK weight = %v, want 2", fk.Weight)
		}
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	db := NewDatabase()
	db.CreateTable(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "i", Type: TypeInt},
			{Name: "f", Type: TypeFloat},
		},
	})
	rid, err := db.Insert("t", []Value{Float(3), Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	row := db.Table("t").Row(rid)
	if row[0].T != TypeInt || row[0].I != 3 {
		t.Errorf("coerced int = %v", row[0])
	}
	if row[1].T != TypeFloat || row[1].F != 2 {
		t.Errorf("coerced float = %v", row[1])
	}
	if _, err := db.Insert("t", []Value{Text("xyz"), Null()}); err == nil {
		t.Error("inserting text into int column should fail")
	}
}

func TestStats(t *testing.T) {
	db := newBibDB(t)
	db.Insert("Author", []Value{Text("a1"), Text("X")})
	s := db.Stats()
	if s.Tables != 4 || s.Rows != 1 || s.FKs != 4 {
		t.Errorf("Stats = %+v", s)
	}
}
