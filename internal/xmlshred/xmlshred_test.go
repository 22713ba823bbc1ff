package xmlshred

import (
	"context"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

const bibXML = `<?xml version="1.0"?>
<bibliography>
  <paper year="1998">
    <title>Mining Surprising Patterns</title>
    <author>Soumen Chakrabarti</author>
    <author>Sunita Sarawagi</author>
    <author>Byron Dom</author>
  </paper>
  <paper year="1981">
    <title>The Transaction Concept</title>
    <author>Jim Gray</author>
  </paper>
</bibliography>`

func TestLoadShape(t *testing.T) {
	db := sqldb.NewDatabase()
	n, err := Load(db, strings.NewReader(bibXML), "bib")
	if err != nil {
		t.Fatal(err)
	}
	// bibliography + 2 papers + 2 titles + 4 authors = 9 elements.
	if n != 9 {
		t.Errorf("loaded %d elements, want 9", n)
	}
	if got := db.Table(ElementTable).Len(); got != 9 {
		t.Errorf("element rows = %d", got)
	}
	if got := db.Table(AttributeTable).Len(); got != 2 {
		t.Errorf("attribute rows = %d (year attrs)", got)
	}
}

func TestLoadParentLinks(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader(bibXML), "bib"); err != nil {
		t.Fatal(err)
	}
	el := db.Table(ElementTable)
	// Exactly one root (NULL parent).
	roots := 0
	el.Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		if row[4].IsNull() {
			roots++
			if row[2].S != "bibliography" {
				t.Errorf("root tag = %q", row[2].S)
			}
		}
		return true
	})
	if roots != 1 {
		t.Errorf("roots = %d", roots)
	}
	// Every non-root parent exists (FKs enforced at insert already).
}

func TestLoadTextContent(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader(bibXML), "bib"); err != nil {
		t.Fatal(err)
	}
	found := false
	db.Table(ElementTable).Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		if row[2].S == "author" && row[3].S == "Sunita Sarawagi" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("author text content missing")
	}
}

func TestMultipleDocuments(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader(bibXML), "bib1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(db, strings.NewReader("<doc><x>hello</x></doc>"), "bib2"); err != nil {
		t.Fatal(err)
	}
	// Element ids must not collide: PK enforcement would have failed, but
	// assert the count.
	if got := db.Table(ElementTable).Len(); got != 11 {
		t.Errorf("elements = %d", got)
	}
}

func TestLoadMalformed(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader("<a><b></a>"), "bad"); err == nil {
		t.Error("mismatched tags should fail")
	}
}

// TestKeywordSearchOverXML is the point of the exercise: BANKS answers a
// keyword query over the shredded document with a connection tree through
// containment edges — two author names connect at their paper element.
func TestKeywordSearchOverXML(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader(bibXML), "bib"); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(g, ix)
	answers, _, err := s.Query(context.Background(), core.Request{Terms: []string{"soumen", "sunita"}}, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers over XML")
	}
	top := answers[0]
	// The information node should be the shared <paper> element.
	rootRow := db.Table(ElementTable).Row(g.RIDOf(top.Root))
	if rootRow == nil || rootRow[2].S != "paper" {
		t.Errorf("root tag = %v, want paper\n%s", rootRow, top.Describe(g))
	}
}

// TestAttributeSearchOverXML: attribute values are searchable and connect
// to their element through the attribute relation.
func TestAttributeSearchOverXML(t *testing.T) {
	db := sqldb.NewDatabase()
	if _, err := Load(db, strings.NewReader(bibXML), "bib"); err != nil {
		t.Fatal(err)
	}
	g, _ := graph.Build(db, nil)
	ix, _ := index.Build(db, g)
	s := core.NewSearcher(g, ix)
	// "1981 gray": the year attribute of the second paper + its author.
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{AttributeTable}
	answers, _, err := s.Query(context.Background(), core.Request{Terms: []string{"1981", "gray"}}, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no attribute answers")
	}
	rootRow := db.Table(ElementTable).Row(g.RIDOf(answers[0].Root))
	if rootRow == nil || rootRow[2].S != "paper" {
		t.Errorf("attribute query root = %v", rootRow)
	}
}

func TestEnsureSchemaIdempotent(t *testing.T) {
	db := sqldb.NewDatabase()
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
}
