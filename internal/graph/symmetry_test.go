package graph

import (
	"fmt"
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

// requireSymmetric checks the View invariant the search's retirement rule
// rests on: every arc u->v has a reverse arc v->u (weights may differ), and
// In mirrors Out, so the nodes that can reach a node are the nodes it can
// reach. It walks every node id, tombstones included.
func requireSymmetric(t *testing.T, v View, label string) {
	t.Helper()
	has := func(es []Edge, n NodeID) bool {
		for _, e := range es {
			if e.To == n {
				return true
			}
		}
		return false
	}
	out, in := 0, 0
	for u := NodeID(0); int(u) < v.NumNodes(); u++ {
		in += len(v.In(u))
		for _, e := range v.Out(u) {
			out++
			if !has(v.Out(e.To), u) {
				t.Fatalf("%s: arc %s->%s has no reverse arc", label, rowName(v, u), rowName(v, e.To))
			}
			if !has(v.In(e.To), u) {
				t.Fatalf("%s: arc %s->%s is missing from In(%s)", label, rowName(v, u), rowName(v, e.To), rowName(v, e.To))
			}
		}
	}
	if out != in {
		t.Fatalf("%s: %d out-arcs but %d in-arcs", label, out, in)
	}
	if out == 0 {
		t.Fatalf("%s: no arcs to check", label)
	}
}

// TestArcsAreSymmetricInEveryForm runs requireSymmetric on each engine
// form: built, store-opened lazy, degree-renumbered, an overlay after
// inserts, updates and deletes, that overlay materialized (what Compact
// writes), and the restricted partitions of a built graph and of the
// overlay.
func TestArcsAreSymmetricInEveryForm(t *testing.T) {
	for _, scale := range []bool{true, false} {
		t.Run(fmt.Sprintf("scale=%v", scale), func(t *testing.T) {
			db := newMutDB(t)
			g := mustBuild(t, db, &BuildOptions{ScaleBackEdges: scale})
			requireSymmetric(t, g, "built")

			meta, src := encodeSegments(t, g)
			lazy, err := OpenLazy(meta, src)
			if err != nil {
				t.Fatal(err)
			}
			requireSymmetric(t, lazy, "lazy")

			requireSymmetric(t, mustBuild(t, db, &BuildOptions{ScaleBackEdges: scale, LayoutOrder: LayoutDegree}), "degree layout")

			even := func(n NodeID) bool { return n%2 == 0 }
			odd := func(n NodeID) bool { return n%2 == 1 }
			for i, keep := range []func(NodeID) bool{even, odd} {
				part, _ := Restrict(g, keep)
				requireSymmetric(t, part, fmt.Sprintf("built partition %d", i))
			}

			m := newMutator(t, db, scale)
			m.apply(
				m.insert("author", sqldb.Text("a9"), sqldb.Text("Fresh Author")),
				m.insert("writes", sqldb.Text("a9"), sqldb.Text("p0")),
				m.insert("cites", sqldb.Text("c9"), sqldb.Text("p3"), sqldb.Text("p3")),
				m.insert("writes", sqldb.Null(), sqldb.Text("p4")),
			)
			m.apply(m.update("writes", 2, map[string]sqldb.Value{"pid": sqldb.Text("p3")}))
			m.apply(m.del("writes", 1), m.del("cites", 2))
			ov := m.d.Snapshot()
			requireSymmetric(t, ov, "overlay")

			mat, _ := Materialize(ov)
			requireSymmetric(t, mat, "materialized overlay")

			for i, keep := range []func(NodeID) bool{even, odd} {
				part, _ := Restrict(ov, keep)
				requireSymmetric(t, part, fmt.Sprintf("overlay partition %d", i))
			}
		})
	}
}
