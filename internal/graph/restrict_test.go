package graph

import (
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

// restrictFixture builds the shared bibliography graph (newMutDB) and an
// even/odd 2-way cut.
func restrictFixture(t *testing.T) (*Graph, func(NodeID) bool) {
	t.Helper()
	g, err := Build(newMutDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, func(n NodeID) bool { return n%2 == 0 }
}

// TestRestrictPreservesGlobalNormalizers is the scoring-parity
// precondition of partitioned serving: the restriction must carry the
// SOURCE graph's w_min/w_max, not recompute them from the surviving
// arcs — otherwise the same tree would score differently depending on
// which partition held it.
func TestRestrictPreservesGlobalNormalizers(t *testing.T) {
	g, keep := restrictFixture(t)
	gp, remap := Restrict(g, keep)

	if gp.MinEdgeWeight() != g.MinEdgeWeight() {
		t.Errorf("restricted w_min %g, want the source's %g", gp.MinEdgeWeight(), g.MinEdgeWeight())
	}
	if gp.MaxNodeWeight() != g.MaxNodeWeight() {
		t.Errorf("restricted w_max %g, want the source's %g", gp.MaxNodeWeight(), g.MaxNodeWeight())
	}
	// The override must be observable: the restriction's own arc extrema
	// generally differ from the global ones, so recomputation would move
	// at least one normalizer on this cut. Verify by recomputing.
	localMin := 0.0
	for n := NodeID(0); int(n) < gp.NumNodes(); n++ {
		for _, e := range gp.Out(n) {
			if localMin == 0 || e.W < localMin {
				localMin = e.W
			}
		}
	}
	if localMin == 0 {
		t.Fatal("restriction kept no arcs; the cut is degenerate")
	}

	// Prestige and identity carry over node by node through the remap.
	kept := 0
	for old := NodeID(0); int(old) < g.NumNodes(); old++ {
		n := remap[old]
		if !keep(old) {
			if n != NoNode {
				t.Fatalf("dropped node %d remapped to %d", old, n)
			}
			continue
		}
		if n == NoNode {
			t.Fatalf("kept node %d has no remap", old)
		}
		kept++
		if gp.Prestige(n) != g.Prestige(old) {
			t.Errorf("node %d prestige %g, want %g", old, gp.Prestige(n), g.Prestige(old))
		}
		if gp.TableNameOf(n) != g.TableNameOf(old) || gp.RIDOf(n) != g.RIDOf(old) {
			t.Errorf("node %d identity %s/%d, want %s/%d", old,
				gp.TableNameOf(n), gp.RIDOf(n), g.TableNameOf(old), g.RIDOf(old))
		}
	}
	if kept != gp.NumNodes() {
		t.Errorf("restriction has %d nodes, want %d kept", gp.NumNodes(), kept)
	}

	// Every table of the source exists in the restriction, with its id.
	if gp.NumTables() != g.NumTables() {
		t.Fatalf("restriction has %d tables, want %d", gp.NumTables(), g.NumTables())
	}
	for tid := int32(0); tid < int32(g.NumTables()); tid++ {
		if gp.TableName(tid) != g.TableName(tid) {
			t.Errorf("table %d is %q, want %q", tid, gp.TableName(tid), g.TableName(tid))
		}
	}
}

// TestRestrictKeepsOnlyInternalArcs checks the cut semantics: an arc
// survives iff both endpoints are kept, with its weight verbatim.
func TestRestrictKeepsOnlyInternalArcs(t *testing.T) {
	g, keep := restrictFixture(t)
	gp, remap := Restrict(g, keep)

	wantArcs := 0
	for old := NodeID(0); int(old) < g.NumNodes(); old++ {
		if !keep(old) {
			continue
		}
		for _, e := range g.Out(old) {
			if keep(e.To) {
				wantArcs++
				if w := gp.ArcWeight(remap[old], remap[e.To]); w != e.W {
					t.Errorf("arc %d->%d weight %g, want %g", old, e.To, w, e.W)
				}
			}
		}
	}
	if gp.NumArcs() != wantArcs {
		t.Errorf("restriction has %d arcs, want %d internal arcs", gp.NumArcs(), wantArcs)
	}
	// No restricted arc may point at a node the source cut dropped: walk
	// the restriction and check every endpoint's preimage is kept.
	back := make(map[NodeID]NodeID, gp.NumNodes())
	for old, n := range remap {
		if n != NoNode {
			back[n] = NodeID(old)
		}
	}
	for n := NodeID(0); int(n) < gp.NumNodes(); n++ {
		for _, e := range gp.Out(n) {
			if !keep(back[n]) || !keep(back[e.To]) {
				t.Fatalf("restricted arc %d->%d crosses the cut", back[n], back[e.To])
			}
		}
	}
}

// TestRestrictEmptyTableRanges: a keep that drops a whole table must
// still leave the table present (empty range), so table ids line up
// across partitions.
func TestRestrictEmptyTableRanges(t *testing.T) {
	g, _ := restrictFixture(t)
	var authorTable int32 = g.TableID("author")
	if authorTable < 0 {
		t.Fatal("no author table in the bibliography graph")
	}
	gp, _ := Restrict(g, func(n NodeID) bool { return g.TableOf(n) != authorTable })
	if gp.NumTables() != g.NumTables() {
		t.Fatalf("restriction has %d tables, want %d", gp.NumTables(), g.NumTables())
	}
	lo, hi := gp.NodesOfTable(authorTable)
	if lo != hi {
		t.Errorf("dropped table has node range [%d,%d), want empty", lo, hi)
	}
	if gp.MinEdgeWeight() != g.MinEdgeWeight() || gp.MaxNodeWeight() != g.MaxNodeWeight() {
		t.Error("normalizers not preserved across a whole-table drop")
	}
}

// TestRestrictNormalizersSurviveSerialization: the store's segments must
// round-trip the overridden normalizers verbatim, or the partition-store
// guarantee breaks at open time.
func TestRestrictNormalizersSurviveSerialization(t *testing.T) {
	g, keep := restrictFixture(t)
	gp, _ := Restrict(g, keep)
	back := reopen(t, gp)
	if back.MinEdgeWeight() != g.MinEdgeWeight() || back.MaxNodeWeight() != g.MaxNodeWeight() {
		t.Errorf("round-tripped normalizers (%g, %g), want the source's (%g, %g)",
			back.MinEdgeWeight(), back.MaxNodeWeight(), g.MinEdgeWeight(), g.MaxNodeWeight())
	}
	_ = sqldb.RID(0) // keep the import honest if helpers change
}
