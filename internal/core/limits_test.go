package core

import (
	"fmt"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

func TestMaxPopsTermination(t *testing.T) {
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.Budget.MaxPops = 5 // absurdly small: the search must still terminate cleanly
	answers, stats, err := f.s.SearchStats([]string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pops > 5 {
		t.Errorf("pops = %d, exceeds cap", stats.Pops)
	}
	// Whatever was generated before the cap is still returned, ranked.
	for i, a := range answers {
		if a.Rank != i+1 {
			t.Errorf("rank %d at position %d", a.Rank, i)
		}
	}
}

func TestMetadataNodeLimit(t *testing.T) {
	// A table with many rows matched via metadata must be truncated at the
	// limit and the truncation reported.
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:    "gizmo",
		Columns: []sqldb.Column{{Name: "label", Type: sqldb.TypeText}},
	})
	for i := 0; i < 50; i++ {
		db.Insert("gizmo", []sqldb.Value{sqldb.Text(fmt.Sprintf("item %d", i))})
	}
	f := newFixture(t, db)
	o := DefaultOptions()
	o.MetadataNodeLimit = 10
	_, stats, err := f.s.SearchStats([]string{"gizmo"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MetadataTruncated {
		t.Error("truncation not reported")
	}
	if stats.MatchedNodes[0] != 10 {
		t.Errorf("matched = %v, want 10", stats.MatchedNodes)
	}
	// Unlimited: all 50.
	o.MetadataNodeLimit = 0
	_, stats, err = f.s.SearchStats([]string{"gizmo"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MatchedNodes[0] != 50 || stats.MetadataTruncated {
		t.Errorf("unlimited stats = %+v", stats)
	}
}

// TestMetadataNodeLimitExactUnderDuplicatePostings locks in the fix for
// the cap being budgeted against len(m.Nodes) *including duplicates*: a
// Lookup whose posting list repeats nodes must still admit exactly
// MetadataNodeLimit metadata nodes, no more.
func TestMetadataNodeLimitExactUnderDuplicatePostings(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:    "gizmo",
		Columns: []sqldb.Column{{Name: "label", Type: sqldb.TypeText}},
	})
	for i := 0; i < 30; i++ {
		db.Insert("gizmo", []sqldb.Value{sqldb.Text(fmt.Sprintf("item %d", i))})
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	tid := g.TableID("gizmo")
	// Hand-built index: "gizmo" matches nodes 0 and 1 as data — each
	// posted three times — and the whole table via metadata.
	lo, _ := g.NodesOfTable(tid)
	ix := index.NewFromPostings(g.NumNodes(), map[string][]graph.NodeID{
		"gizmo": {lo, lo, lo, lo + 1, lo + 1, lo + 1},
	}, map[string][]int32{
		"gizmo": {tid},
	})
	s := NewSearcher(g, ix)
	o := DefaultOptions()
	o.MetadataNodeLimit = 5
	_, stats, err := s.SearchStats([]string{"gizmo"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MetadataTruncated {
		t.Error("truncation not reported")
	}
	// Exactly 2 distinct data nodes + 5 admitted metadata nodes. The old
	// budget (len(set) >= len(m.Nodes)+limit = 11) would have admitted 9.
	if got := stats.MatchedNodes[0]; got != 7 {
		t.Errorf("matched = %d, want 7 (2 data + 5 metadata)", got)
	}
}

func TestMaxCombosTruncationReported(t *testing.T) {
	// A star: one hub referenced by many spokes, half matching "left",
	// half "right". Every spoke pair meets at the hub, so the cross
	// product at the hub is |left| x |right|.
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name:       "hub",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}},
		PrimaryKey: []string{"id"},
	})
	db.CreateTable(&sqldb.TableSchema{
		Name: "spoke",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "hub", Type: sqldb.TypeInt},
			{Name: "tag", Type: sqldb.TypeText},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "hub", RefTable: "hub"}},
	})
	db.Insert("hub", []sqldb.Value{sqldb.Int(1)})
	for i := 0; i < 30; i++ {
		tag := "left"
		if i%2 == 1 {
			tag = "right"
		}
		db.Insert("spoke", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Int(1), sqldb.Text(tag)})
	}
	f := newFixture(t, db)
	o := DefaultOptions()
	o.MaxCombosPerVisit = 5
	o.TopK = 100
	o.HeapSize = 10
	_, stats, err := f.s.SearchStats([]string{"left", "right"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CombosTruncated {
		t.Error("combo truncation not reported")
	}
}

func TestStopsAfterTopKEmitted(t *testing.T) {
	// The bib fixture yields exactly two valid soumen-sunita answers (the
	// deeper trees all share a single root child and are pruned); with
	// TopK=1 and a heap of 1 the second distinct result forces the first
	// emission and the search must stop there.
	f := newBibFixture(t)
	o := defaultBibOptions()
	o.TopK = 1
	o.HeapSize = 1
	answers, stats, err := f.s.SearchStats([]string{"soumen", "sunita"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Errorf("answers = %d, want exactly TopK", len(answers))
	}
	// Early termination: nowhere near a full multi-iterator exhaustion.
	if stats.Pops >= f.g.NumNodes()*2 {
		t.Errorf("pops = %d; early termination failed", stats.Pops)
	}
}

func TestWithDefaultsDoesNotMutateCaller(t *testing.T) {
	o := &Options{TopK: 5}
	_ = o.withDefaultsInto(new(Options))
	if o.HeapSize != 0 || o.Budget.MaxPops != 0 {
		t.Errorf("caller options mutated: %+v", o)
	}
}
