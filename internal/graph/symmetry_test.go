package graph

import (
	"fmt"
	"math"
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

// requirePositiveWeights checks the View invariant the shortest-path
// iterator's radix heap rests on: every arc weight, on both sides of the
// adjacency, is finite and strictly positive.
func requirePositiveWeights(t *testing.T, v View, label string) {
	t.Helper()
	arcs := 0
	for u := NodeID(0); int(u) < v.NumNodes(); u++ {
		for _, dir := range []struct {
			name string
			es   []Edge
		}{{"out", v.Out(u)}, {"in", v.In(u)}} {
			for _, e := range dir.es {
				arcs++
				if !(e.W > 0 && !math.IsInf(e.W, 1)) {
					t.Fatalf("%s: %s-arc %s/%s has weight %v", label, dir.name, rowName(v, u), rowName(v, e.To), e.W)
				}
			}
		}
	}
	if arcs == 0 {
		t.Fatalf("%s: no arcs to check", label)
	}
}

// requireKeys checks a view's key table against its (table, rid) identity
// for every node id, tombstones included.
func requireKeys(t *testing.T, v View, label string) {
	t.Helper()
	keys := v.Keys()
	for n := NodeID(0); int(n) < v.NumNodes(); n++ {
		if got, want := keys.Of(n), Key(v.TableOf(n), v.RIDOf(n)); got != want {
			t.Fatalf("%s: key of node %d (%s) = %#x, want %#x", label, n, rowName(v, n), got, want)
		}
	}
}

// eachForm runs check on each engine form: built, store-opened lazy, an
// overlay after inserts, updates and deletes, that
// overlay materialized (what Compact writes), and the restricted
// partitions of a built graph and of the overlay.
func eachForm(t *testing.T, check func(t *testing.T, v View, label string)) {
	for _, scale := range []bool{true, false} {
		t.Run(fmt.Sprintf("scale=%v", scale), func(t *testing.T) {
			db := newMutDB(t)
			g := mustBuild(t, db, &BuildOptions{ScaleBackEdges: scale})
			check(t, g, "built")

			meta, src := encodeSegments(t, g)
			lazy, err := OpenLazy(meta, src)
			if err != nil {
				t.Fatal(err)
			}
			check(t, lazy, "lazy")

			even := func(n NodeID) bool { return n%2 == 0 }
			odd := func(n NodeID) bool { return n%2 == 1 }
			for i, keep := range []func(NodeID) bool{even, odd} {
				part, _ := Restrict(g, keep)
				check(t, part, fmt.Sprintf("built partition %d", i))
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
			check(t, ov, "overlay")

			mat, _ := Materialize(ov)
			check(t, mat, "materialized overlay")

			for i, keep := range []func(NodeID) bool{even, odd} {
				part, _ := Restrict(ov, keep)
				check(t, part, fmt.Sprintf("overlay partition %d", i))
			}
		})
	}
}

func TestArcsAreSymmetricInEveryForm(t *testing.T) { eachForm(t, requireSymmetric) }

func TestArcWeightsPositiveInEveryForm(t *testing.T) { eachForm(t, requirePositiveWeights) }

func TestKeysMatchIdentityInEveryForm(t *testing.T) { eachForm(t, requireKeys) }

// TestOverlayKeysShareBase: an overlay's key table reuses its base's slice
// and holds only the appended nodes of its own, so a publish never copies
// the base table; a later snapshot extends, and leaves the earlier alone.
func TestOverlayKeysShareBase(t *testing.T) {
	db := newMutDB(t)
	m := newMutator(t, db, true)
	base := m.d.cur.base.Keys()
	m.apply(m.insert("author", sqldb.Text("a9"), sqldb.Text("Fresh Author")))
	first := m.d.Snapshot()
	m.apply(m.insert("writes", sqldb.Text("a9"), sqldb.Text("p0")))
	second := m.d.Snapshot()

	k1, k2 := first.Keys(), second.Keys()
	if &k1.base[0] != &base.base[0] || &k2.base[0] != &base.base[0] {
		t.Fatal("overlay copied its base's key table")
	}
	if len(k1.app) != 1 || len(k2.app) != 2 {
		t.Fatalf("appended keys: %d and %d, want 1 and 2", len(k1.app), len(k2.app))
	}
	requireKeys(t, first, "first snapshot")
	requireKeys(t, second, "second snapshot")
}
