package core

import (
	"github.com/banksdb/banks/internal/graph"
)

// sspIterator is the incremental single-source shortest path iterator of
// Section 3: it runs Dijkstra from a keyword node over the *reversed*
// edges, so that the distance it reports for a node v is the weight of the
// shortest *forward* path v -> ... -> origin. Next() yields nodes in
// nondecreasing distance, lazily, one at a time — which is what lets the
// backward expanding search interleave |S| of these through a single
// iterator heap.
//
// Per-node state (tentative or settled distance, next hop, its arc weight)
// is proportional to the nodes the iterator has touched, in two regimes.
// An iterator starts sparse: an open-addressed table keyed by NodeID,
// sparseInitSlots wide, doubling at half load — a name query opens hundreds
// of iterators that each touch a few dozen nodes. Once it has touched more
// than NumNodes/densePromoteDiv nodes it promotes: the table is scattered
// into a denseBlock of NodeID-indexed arrays taken from the owning arena,
// and relaxation runs the direct-indexed loop from then on — the far-apart
// queries that sweep half the graph per origin. The regime is tested once
// per pop, never per arc. Both regimes stamp slots with gen, so re-rooting
// an iterator costs a generation bump, not a clear; the settling order is
// a total order on (distance, node key), so the regime changes nothing
// observable. Iterators are recycled through the searchArena.
type sspIterator struct {
	g      graph.View
	origin graph.NodeID

	gen uint32 // even; a slot stamped gen is tentative, gen+1 settled, anything else untouched
	pq  distHeap

	// Sparse regime: tab is the open-addressed table (linear probing, no
	// deletion within a generation), hashed by the top bits of a
	// multiplicative hash, shift = 32 - log2(len(tab)). live counts the
	// nodes touched this generation; crossing promoteAt promotes.
	tab       []sparseSlot
	shift     uint
	live      int
	promoteAt int

	// Dense regime: non-nil once promoted. The block comes from ar, the
	// arena the iterator belongs to for life, and goes back to it in
	// searchArena.release.
	dense *denseBlock
	ar    *searchArena

	// cleaned records that pq[0] is known live (clean ran and nothing was
	// settled since), and in the sparse regime top is its node's slot: the
	// Peek that follows every Next pays the one probe the next Next needs.
	cleaned bool
	top     int

	// lastArcs is how many reverse arcs the last Next() relaxed — the
	// expansion loop's unit of arc-budget accounting.
	lastArcs int
}

const (
	// A new iterator's table is sparseInitSlots = 2^sparseInitBits wide.
	sparseInitBits  = 6
	sparseInitSlots = 1 << sparseInitBits
	// densePromoteDiv sets the promotion point: an iterator that has touched
	// more than NumNodes/densePromoteDiv nodes moves to dense arrays. At 32
	// the largest table (under 4 × NumNodes/32 slots of 32 bytes) stays a
	// sixth of the 24 bytes/node block that replaces it.
	densePromoteDiv = 32
)

// sparseSlot is one touched node's state in the sparse regime; 32 bytes,
// so a probe that hits costs one cache line.
type sparseSlot struct {
	node    graph.NodeID
	stamp   uint32 // see sspIterator.gen
	dist    float64
	parent  graph.NodeID // next hop from node toward origin (forward direction)
	pweight float64      // weight of the arc node -> parent
}

// denseBlock is the dense regime's state: four NodeID-indexed arrays kept
// apart (not one record per node) so the 4 bytes/node visit array, which
// every relaxed arc reads, stays cache-resident on its own.
type denseBlock struct {
	dist    []float64
	parent  []graph.NodeID
	pweight []float64
	visit   []uint32
}

func newDenseBlock(n int) *denseBlock {
	return &denseBlock{
		dist:    make([]float64, n),
		parent:  make([]graph.NodeID, n),
		pweight: make([]float64, n),
		visit:   make([]uint32, n),
	}
}

type distEntry struct {
	node graph.NodeID
	d    float64
	key  uint64 // stable (table, rid) identity of node; see nodeKey
}

// nodeKey packs a node's (table, rid) identity into one comparable word.
// Ties are broken on this key rather than on the NodeID so that two
// engines holding the same logical graph under different node numberings
// — a delta overlay with appended nodes versus a from-scratch rebuild
// that renumbers them into their table blocks — settle tied nodes and
// choose tied shortest-path parents identically.
func nodeKey(g graph.View, n graph.NodeID) uint64 {
	return uint64(g.TableOf(n))<<48 | uint64(g.RIDOf(n))&(1<<48-1)
}

// less orders entries by (distance, stable identity): the total order that
// makes the settling sequence independent of node numbering.
func (e distEntry) less(o distEntry) bool {
	return e.d < o.d || (e.d == o.d && e.key < o.key)
}

// distHeap is a hand-rolled binary min-heap on (d, key). container/heap
// would box every distEntry pushed through its interface{} parameters — on
// the hot path that is one allocation per relaxation.
type distHeap []distEntry

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *distHeap) pop() distEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	if n > 1 {
		s[:n].siftDown(0)
	}
	return top
}

func (h distHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// reset re-roots a (possibly recycled) iterator at origin, in the sparse
// regime. The generation bump invalidates every slot of the previous run
// in O(1) — the table keeps whatever width it grew to — and the stamps are
// zeroed only on uint32 wraparound.
func (it *sspIterator) reset(g graph.View, origin graph.NodeID) {
	it.g = g
	it.origin = origin
	it.gen += 2
	if it.gen < 2 { // wrapped
		for i := range it.tab {
			it.tab[i].stamp = 0
		}
		it.gen = 2
	}
	if it.tab == nil {
		it.tab = make([]sparseSlot, sparseInitSlots)
		it.shift = 32 - sparseInitBits
	}
	it.dense = nil
	it.live = 0
	it.promoteAt = g.NumNodes() / densePromoteDiv
	it.cleaned = false
	it.pq = it.pq[:0]
	it.lastArcs = 0
	i, _ := it.probe(origin)
	it.tab[i] = sparseSlot{node: origin, stamp: it.gen}
	it.pq.push(distEntry{node: origin, d: 0, key: nodeKey(g, origin)})
	it.claimed()
}

// probe finds n's slot in the sparse table: (its index, true) when n has
// been touched this generation, else (the free slot it would claim, false).
// Slots stamped by an earlier generation count as free.
func (it *sspIterator) probe(n graph.NodeID) (int, bool) {
	mask := len(it.tab) - 1
	i := int(uint32(n) * 0x9E3779B1 >> it.shift)
	for {
		s := &it.tab[i]
		if s.stamp-it.gen > 1 {
			return i, false
		}
		if s.node == n {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// claimed accounts for one newly touched node in the sparse regime:
// promote past the threshold, else keep the table at most half full. It
// reports whether the iterator promoted.
func (it *sspIterator) claimed() bool {
	it.live++
	if it.live > it.promoteAt {
		it.promote()
		return true
	}
	if 2*it.live > len(it.tab) {
		it.grow()
	}
	return false
}

// grow doubles the table and rehashes this generation's slots into it.
func (it *sspIterator) grow() {
	old := it.tab
	it.tab = make([]sparseSlot, 2*len(old))
	it.shift--
	for k := range old {
		if s := &old[k]; s.stamp-it.gen <= 1 {
			i, _ := it.probe(s.node)
			it.tab[i] = *s
		}
	}
}

// promote moves the iterator to the dense regime, scattering every touched
// node's state into a block from the owning arena. The table is kept for
// the next reset.
func (it *sspIterator) promote() {
	b := it.ar.takeDense()
	for k := range it.tab {
		if s := &it.tab[k]; s.stamp-it.gen <= 1 {
			b.dist[s.node] = s.dist
			b.parent[s.node] = s.parent
			b.pweight[s.node] = s.pweight
			b.visit[s.node] = s.stamp
		}
	}
	it.dense = b
}

// clean drops stale heap entries (lazy deletion), leaving pq[0] live.
func (it *sspIterator) clean() {
	if it.cleaned {
		return
	}
	settled := it.gen + 1
	if b := it.dense; b != nil {
		for len(it.pq) > 0 && b.visit[it.pq[0].node] == settled {
			it.pq.pop()
		}
	} else {
		for len(it.pq) > 0 {
			// Every heap entry's node was claimed when it was pushed.
			i, _ := it.probe(it.pq[0].node)
			if it.tab[i].stamp != settled {
				it.top = i
				break
			}
			it.pq.pop()
		}
	}
	it.cleaned = true
}

// Peek returns the next node and distance without consuming it.
func (it *sspIterator) Peek() (graph.NodeID, float64, bool) {
	it.clean()
	if len(it.pq) == 0 {
		return graph.NoNode, 0, false
	}
	return it.pq[0].node, it.pq[0].d, true
}

// Next settles and returns the closest unsettled node. After settling v it
// relaxes the reverse edges into v: every forward arc u->v extends the
// forward path u -> v -> ... -> origin.
func (it *sspIterator) Next() (graph.NodeID, float64, bool) {
	it.clean()
	if len(it.pq) == 0 {
		it.lastArcs = 0
		return graph.NoNode, 0, false
	}
	top := it.pq.pop()
	it.cleaned = false
	v, d := top.node, top.d
	if b := it.dense; b != nil {
		b.dist[v] = d
		b.visit[v] = it.gen + 1
	} else {
		s := &it.tab[it.top]
		s.dist = d
		s.stamp = it.gen + 1
	}
	vkey := nodeKey(it.g, v)
	in := it.g.In(v)
	it.lastArcs = len(in)
	if it.dense == nil {
		in = it.relaxSparse(v, d, vkey, in)
	}
	if it.dense != nil {
		it.relaxDense(v, d, vkey, in)
	}
	return v, d, true
}

// relaxSparse relaxes the arcs in into the just-settled v against the
// table. If claiming a node promotes the iterator it stops there and
// returns the arcs not yet relaxed, for relaxDense to finish.
func (it *sspIterator) relaxSparse(v graph.NodeID, d float64, vkey uint64, in []graph.Edge) []graph.Edge {
	for k, e := range in {
		u, w := e.To, e.W
		nd := d + w
		i, ok := it.probe(u)
		s := &it.tab[i]
		if !ok {
			*s = sparseSlot{node: u, stamp: it.gen, dist: nd, parent: v, pweight: w}
			it.pq.push(distEntry{node: u, d: nd, key: nodeKey(it.g, u)})
			if it.claimed() {
				return in[k+1:]
			}
			continue
		}
		if s.stamp == it.gen+1 {
			continue // settled
		}
		if nd < s.dist {
			s.dist = nd
			s.parent = v
			s.pweight = w
			it.pq.push(distEntry{node: u, d: nd, key: nodeKey(it.g, u)})
		} else if nd == s.dist && vkey < nodeKey(it.g, s.parent) {
			// Equal-cost path through a smaller-identity parent; see relaxDense.
			s.parent = v
			s.pweight = w
		}
	}
	return nil
}

// relaxDense is relaxSparse over the direct-indexed arrays.
func (it *sspIterator) relaxDense(v graph.NodeID, d float64, vkey uint64, in []graph.Edge) {
	b := it.dense
	dist, parent, pweight, visit := b.dist, b.parent, b.pweight, b.visit
	gen := it.gen
	for _, e := range in {
		u, w := e.To, e.W
		st := visit[u]
		if st == gen+1 {
			continue // settled
		}
		nd := d + w
		if st != gen || nd < dist[u] {
			dist[u] = nd
			visit[u] = gen
			parent[u] = v
			pweight[u] = w
			it.pq.push(distEntry{node: u, d: nd, key: nodeKey(it.g, u)})
		} else if nd == dist[u] && vkey < nodeKey(it.g, parent[u]) {
			// Equal-cost path through a smaller-identity parent: adopt it,
			// so the chosen shortest-path tree is canonical in (table, rid)
			// terms and identical across node numberings. Every candidate
			// parent settles (strictly positive weights) before u pops, so
			// the final choice is order-independent. No push: u's tentative
			// distance is unchanged.
			parent[u] = v
			pweight[u] = w
		}
	}
}

// Dist returns the settled distance of v (forward path weight v->origin).
func (it *sspIterator) Dist(v graph.NodeID) (float64, bool) {
	if b := it.dense; b != nil {
		if b.visit[v] != it.gen+1 {
			return 0, false
		}
		return b.dist[v], true
	}
	i, _ := it.probe(v)
	if s := &it.tab[i]; s.stamp == it.gen+1 { // a free slot's stamp is never current
		return s.dist, true
	}
	return 0, false
}

// PathEdges appends to dst the directed forward edges of the shortest path
// v -> ... -> origin. v must be settled.
func (it *sspIterator) PathEdges(v graph.NodeID, dst []TreeEdge) []TreeEdge {
	settled := it.gen + 1
	if b := it.dense; b != nil {
		for v != it.origin {
			if b.visit[v] != settled {
				return dst // origin unreachable; cannot happen for settled v
			}
			p := b.parent[v]
			dst = append(dst, TreeEdge{From: v, To: p, W: b.pweight[v]})
			v = p
		}
		return dst
	}
	for v != it.origin {
		i, _ := it.probe(v)
		s := &it.tab[i]
		if s.stamp != settled {
			return dst
		}
		dst = append(dst, TreeEdge{From: v, To: s.parent, W: s.pweight})
		v = s.parent
	}
	return dst
}
