package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// randomArcs generates n arcs over nn nodes with heavy (from, to)
// collisions carrying different weights, so the parallel-arc merge is
// exercised; self-loops are excluded, as Build drops them.
func randomArcs(rng *rand.Rand, n, nn int) []arc {
	arcs := make([]arc, 0, n)
	for len(arcs) < n {
		a := arc{from: NodeID(rng.Intn(nn)), to: NodeID(rng.Intn(nn)), w: float64(rng.Intn(16)) + 1}
		if a.from != a.to {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// referenceCSR is the fill finish must reproduce, computed the slow way:
// sort by (from, to, w), keep the first arc of every (from, to) run, and
// list each node's out- and in-edges in that order.
func referenceCSR(arcs []arc, nn int) (out, in [][]Edge, minEdge float64) {
	sorted := slices.Clone(arcs)
	slices.SortFunc(sorted, func(a, b arc) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.w, b.w))
	})
	out, in = make([][]Edge, nn), make([][]Edge, nn)
	minEdge = 1
	for i, a := range sorted {
		if i > 0 && sorted[i-1].from == a.from && sorted[i-1].to == a.to {
			continue
		}
		out[a.from] = append(out[a.from], Edge{To: a.to, W: a.w})
		in[a.to] = append(in[a.to], Edge{To: a.from, W: a.w})
		if i == 0 || a.w < minEdge {
			minEdge = a.w
		}
	}
	return out, in, minEdge
}

// TestFinishMatchesSortedReference pins the counting-sort CSR fill against
// a comparison sort with a first-of-run merge. The fill is order-free, so
// each arc list is also handed over reversed and shuffled: the order
// shards deliver their links in must not reach the graph.
func TestFinishMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []struct{ arcs, nodes int }{{0, 1}, {1, 2}, {100, 12}, {5000, 600}, {40000, 3000}} {
		arcs := randomArcs(rng, c.arcs, c.nodes)
		wantOut, wantIn, wantMin := referenceCSR(arcs, c.nodes)
		wantArcs := 0
		for _, es := range wantOut {
			wantArcs += len(es)
		}
		reversed := slices.Clone(arcs)
		slices.Reverse(reversed)
		shuffled := slices.Clone(arcs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for order, in := range map[string][]arc{"given": slices.Clone(arcs), "reversed": reversed, "shuffled": shuffled} {
			g := &Graph{tableOf: make([]int32, c.nodes), prestige: make([]float64, c.nodes)}
			g.finish(in)
			if g.NumArcs() != wantArcs {
				t.Fatalf("%d arcs, %s: NumArcs = %d, want %d", c.arcs, order, g.NumArcs(), wantArcs)
			}
			if g.MinEdgeWeight() != wantMin {
				t.Fatalf("%d arcs, %s: MinEdgeWeight = %v, want %v", c.arcs, order, g.MinEdgeWeight(), wantMin)
			}
			for n := range c.nodes {
				if got := g.Out(NodeID(n)); !slices.Equal(got, wantOut[n]) {
					t.Fatalf("%d arcs, %s: Out(%d) = %v, want %v", c.arcs, order, n, got, wantOut[n])
				}
				if got := g.In(NodeID(n)); !slices.Equal(got, wantIn[n]) {
					t.Fatalf("%d arcs, %s: In(%d) = %v, want %v", c.arcs, order, n, got, wantIn[n])
				}
			}
		}
	}
}
