package graph

import (
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

func TestGraphSerializationRoundTrip(t *testing.T) {
	db := newUniversityDB(t, 9)
	g := mustBuild(t, db, nil)
	back := reopen(t, g)
	if back.NumNodes() != g.NumNodes() || back.NumArcs() != g.NumArcs() || back.NumTables() != g.NumTables() {
		t.Fatalf("shape mismatch: %s vs %s", back, g)
	}
	if back.MinEdgeWeight() != g.MinEdgeWeight() || back.MaxNodeWeight() != g.MaxNodeWeight() {
		t.Errorf("normalizers differ")
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		if back.TableNameOf(n) != g.TableNameOf(n) || back.RIDOf(n) != g.RIDOf(n) {
			t.Fatalf("node %d identity differs", n)
		}
		if back.Prestige(n) != g.Prestige(n) {
			t.Fatalf("node %d prestige differs", n)
		}
		a, b := g.Out(n), back.Out(n)
		if len(a) != len(b) {
			t.Fatalf("node %d degree differs", n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d differs: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
	// Node lookup by (table, rid) survives.
	if back.NodeOf("dept", 0) != g.NodeOf("dept", 0) {
		t.Error("NodeOf mismatch")
	}
	if back.NodeOf("student", 3) != g.NodeOf("student", 3) {
		t.Error("NodeOf mismatch for student")
	}
	requireSameSegments(t, g, back)
}

func TestGraphSerializationWithTombstones(t *testing.T) {
	db := newUniversityDB(t, 5)
	if err := db.Delete("student", 2); err != nil {
		t.Fatal(err)
	}
	back := reopen(t, mustBuild(t, db, nil))
	if back.NodeOf("student", 2) != NoNode {
		t.Error("tombstoned rid mapped to a node after round trip")
	}
	if back.NodeOf("student", 3) == NoNode {
		t.Error("live rid lost after round trip")
	}
}

func TestGraphSerializationEmpty(t *testing.T) {
	g := mustBuild(t, sqldb.NewDatabase(), nil)
	back := reopen(t, g)
	if back.NumNodes() != 0 || back.NumArcs() != 0 {
		t.Errorf("empty round trip: %s", back)
	}
	requireSameSegments(t, g, back)
	if err := back.LazyErr(); err != nil {
		t.Fatal(err)
	}
}
