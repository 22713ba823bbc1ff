package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

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
// an iterator costs a generation bump, not a clear. Iterators are recycled
// through the searchArena.
//
// The frontier is a monotone radix heap (distHeap) on (distance, node
// key), where a node's key is its (table, rid) identity read from the
// view's graph.Keys table — one slice lookup, no View call. Keys are read
// only to order distance ties: within the heap's minimum bucket, and
// between equal-cost parents. So the settling order and the chosen
// shortest-path tree are canonical in (table, rid) terms, identical under
// any node numbering and in either regime. The bucket is ordered by
// sorting the key words themselves (insertion or byte-wise radix, see
// distHeap.sortZero), not through a comparison callback; the keys in a
// bucket are distinct, so that is the order any (distance, key) sort gives.
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

	// cleaned records that the heap minimum topNode is known live (clean
	// ran and nothing was settled since), and in the sparse regime top is
	// its slot: the Peek that follows every Next pays the one probe the
	// next Next needs.
	cleaned bool
	topNode graph.NodeID
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

// resize reslices the block's arrays to length n, within their capacity.
func (b *denseBlock) resize(n int) {
	b.dist = b.dist[:n]
	b.parent = b.parent[:n]
	b.pweight = b.pweight[:n]
	b.visit = b.visit[:n]
}

// distHeap is the iterator's priority queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) on (distance, node key).
// Arc weights are finite and strictly positive (graph.View), so Dijkstra
// never pushes a distance below the last one it popped, and an entry's
// place is fixed by the highest bit in which its distance's float64 bits
// (monotone in the value for d >= 0) differ from last, the current
// minimum: bucket i holds the entries with bits.Len64(bits(d)^last) == i.
// Pops empty zero, the entries at exactly last; refill then takes the
// lowest non-empty bucket, makes its minimum the new last and relinks its
// entries, every one into zero or a strictly lower bucket. So an entry
// moves at most 63 times, and no comparison is made outside the bucket
// being emptied.
//
// Only zero needs the (table, rid) tie-break: it is sorted by key once,
// when a refill forms it, so the pop order is the same total order on
// (distance, key) a comparison heap gives, and two numberings of one
// logical graph settle identically. Distance ties are common — with
// integer-valued weights most pops share their distance with another
// entry — but a lone minimum needs no key at all. The sort (sortZero)
// makes no comparison through a function: an insertion sort for a short
// bucket, an LSD radix sort on the key's bytes above that. No two nodes
// share a key, and no node is in zero twice (a node is pushed again only
// at a strictly shorter distance), so the bucket has one descending order
// and which algorithm produced it never shows in what pops; pushZero's
// binary insert relies on nothing else.
//
// Buckets are singly linked lists threaded through one entry pool with a
// free list, so an iterator's heap is one slice that grows to its most
// live entries, however they spread over the 64 buckets.
type distHeap struct {
	keys graph.Keys
	tie  *tieScratch // the radix sort's scratch, shared by the arena's iterators
	last uint64      // math.Float64bits of the minimum distance; no entry is below it
	// zero holds the entries at distance last by descending key: the
	// minimum pops off the end. A lone entry's key is not looked up.
	zero []keyedNode
	// nonEmpty has bit i set iff bucket i holds entries, head[i] its first
	// (i >= 1; a non-negative distance never sets the sign bit, so i <= 63).
	nonEmpty uint64
	head     [64]int32
	ent      []distEntry
	free     int32 // first free entry of ent, -1 if none
}

// distEntry is a pooled bucket entry.
type distEntry struct {
	d    float64
	node graph.NodeID
	next int32 // next entry of the same list, -1 at its end
}

type keyedNode struct {
	key  uint64
	node graph.NodeID
}

// tieScratch is sortZero's radix-sort state: the ping-pong buffer and the
// per-byte counts. It lives in the searchArena, not on sortZero's stack —
// the 1 KB of counts there made the frame large enough to cost the short
// answerless queries a stack growth — and not in each iterator, since
// only one refill runs at a time per query.
type tieScratch struct {
	buf   []keyedNode
	count [256]int32
}

// radixMin is the shortest bucket sortZero radix-sorts; shorter ones take
// the insertion sort. A radix pass costs a 1 KB clear and a 256-entry
// prefix sum whatever the bucket's size, so the two cross near 64. Per
// sort in ns, keyedNodes with distinct DBLP-like keys (4 tables, rids
// below 2^17: four passes), on a 2-vCPU Xeon VM, against the closure
// slices.SortFunc this replaced:
//
//	n              10     32     48     64     96    160    1000
//	insertion      75    461   1144   2109   4663  11612  388171
//	radix         993   1310   1204   2059   1866   3330   23991
//	SortFunc      212   1428   2211   3474   6945  13618  118331
const radixMin = 64

// reset empties the heap, keeping its capacity, and sets last to 0. tie
// is the scratch refills sort with.
func (h *distHeap) reset(keys graph.Keys, tie *tieScratch) {
	h.keys = keys
	h.tie = tie
	h.last = 0
	h.zero = h.zero[:0]
	h.nonEmpty = 0
	h.ent = h.ent[:0]
	h.free = -1
}

// push adds node n at distance d, which must not be below the last
// minimum.
func (h *distHeap) push(n graph.NodeID, d float64) {
	x := math.Float64bits(d) ^ h.last
	if x == 0 {
		h.pushZero(n)
		return
	}
	k := h.free
	if k >= 0 {
		h.free = h.ent[k].next
	} else {
		k = int32(len(h.ent))
		h.ent = append(h.ent, distEntry{})
	}
	h.ent[k] = distEntry{d: d, node: n}
	h.link(k, bits.Len64(x))
}

// link makes entry k the head of bucket i.
func (h *distHeap) link(k int32, i int) {
	if h.nonEmpty&(1<<i) == 0 {
		h.ent[k].next = -1
		h.nonEmpty |= 1 << i
	} else {
		h.ent[k].next = h.head[i]
	}
	h.head[i] = k
}

// pushZero inserts n at distance last into zero, in key order. Only a
// weight lost to rounding (d + w == d) lands here outside a refill.
func (h *distHeap) pushZero(n graph.NodeID) {
	k := h.keys.Of(n)
	if len(h.zero) == 1 {
		h.zero[0].key = h.keys.Of(h.zero[0].node)
	}
	i, _ := slices.BinarySearchFunc(h.zero, k, func(e keyedNode, k uint64) int {
		return cmp.Compare(k, e.key) // descending
	})
	h.zero = slices.Insert(h.zero, i, keyedNode{key: k, node: n})
}

// min returns the minimum entry's node, or false when the heap is empty.
// Its distance is dist().
func (h *distHeap) min() (graph.NodeID, bool) {
	if len(h.zero) == 0 {
		if h.nonEmpty == 0 {
			return graph.NoNode, false
		}
		h.refill()
	}
	return h.zero[len(h.zero)-1].node, true
}

// dist returns the minimum distance.
func (h *distHeap) dist() float64 { return math.Float64frombits(h.last) }

// pop removes the minimum entry; min must have reported it.
func (h *distHeap) pop() { h.zero = h.zero[:len(h.zero)-1] }

// refill forms zero from the lowest non-empty bucket: its minimum becomes
// last, the entries at last go to zero and the rest to lower buckets.
func (h *distHeap) refill() {
	i := bits.TrailingZeros64(h.nonEmpty)
	h.nonEmpty &^= 1 << i
	m := uint64(math.MaxUint64)
	for k := h.head[i]; k >= 0; k = h.ent[k].next {
		m = min(m, math.Float64bits(h.ent[k].d))
	}
	h.last = m
	for k := h.head[i]; k >= 0; {
		e := &h.ent[k]
		next := e.next
		if x := math.Float64bits(e.d) ^ m; x != 0 {
			h.link(k, bits.Len64(x)) // < i: e and m agree on every bit from i-1 up
		} else {
			h.zero = append(h.zero, keyedNode{node: e.node})
			e.next = h.free
			h.free = k
		}
		k = next
	}
	if len(h.zero) > 1 {
		h.sortZero()
	}
}

// sortZero looks up the keys of zero's entries and orders them by
// descending key: by insertion below radixMin entries, else by an LSD
// radix sort, one stable counting pass per byte, on the complemented byte
// so the order comes out descending. A pass is skipped for every byte in
// which no key differs from the first, so a bucket of keys that share
// their table and the high bytes of their rid takes two or three passes.
func (h *distHeap) sortZero() {
	z := h.zero
	for k := range z {
		z[k].key = h.keys.Of(z[k].node)
	}
	if len(z) < radixMin {
		for i := 1; i < len(z); i++ {
			e := z[i]
			j := i
			for ; j > 0 && z[j-1].key < e.key; j-- {
				z[j] = z[j-1]
			}
			z[j] = e
		}
		return
	}
	k0, diff := z[0].key, uint64(0)
	for _, e := range z {
		diff |= e.key ^ k0
	}
	t := h.tie
	if cap(t.buf) < len(z) {
		t.buf = make([]keyedNode, len(z)+len(z)/4)
	}
	src, dst := z, t.buf[:len(z)]
	c := &t.count
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		clear(c[:])
		for _, e := range src {
			c[^e.key>>shift&0xff]++
		}
		var sum int32
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, e := range src {
			b := ^e.key >> shift & 0xff
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &z[0] {
		copy(z, src)
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
	it.pq.reset(g.Keys(), &it.ar.tie)
	it.lastArcs = 0
	i, _ := it.probe(origin)
	it.tab[i] = sparseSlot{node: origin, stamp: it.gen}
	it.pq.push(origin, 0)
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
	b := it.ar.takeDense(it.g.NumNodes())
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

// clean drops stale heap entries (lazy deletion), leaving the minimum
// live, and returns it (NoNode when the heap is empty).
func (it *sspIterator) clean() graph.NodeID {
	if it.cleaned {
		return it.topNode
	}
	settled := it.gen + 1
	n, ok := it.pq.min()
	if b := it.dense; b != nil {
		for ok && b.visit[n] == settled {
			it.pq.pop()
			n, ok = it.pq.min()
		}
	} else {
		for ok {
			// Every heap entry's node was claimed when it was pushed.
			i, _ := it.probe(n)
			if it.tab[i].stamp != settled {
				it.top = i
				break
			}
			it.pq.pop()
			n, ok = it.pq.min()
		}
	}
	it.cleaned = true
	it.topNode = n
	return n
}

// Peek returns the next node and distance without consuming it.
func (it *sspIterator) Peek() (graph.NodeID, float64, bool) {
	n := it.clean()
	if n == graph.NoNode {
		return graph.NoNode, 0, false
	}
	return n, it.pq.dist(), true
}

// Next settles and returns the closest unsettled node. After settling v it
// relaxes the reverse edges into v: every forward arc u->v extends the
// forward path u -> v -> ... -> origin.
func (it *sspIterator) Next() (graph.NodeID, float64, bool) {
	v := it.clean()
	if v == graph.NoNode {
		it.lastArcs = 0
		return graph.NoNode, 0, false
	}
	d := it.pq.dist()
	it.pq.pop()
	it.cleaned = false
	if b := it.dense; b != nil {
		b.dist[v] = d
		b.visit[v] = it.gen + 1
	} else {
		s := &it.tab[it.top]
		s.dist = d
		s.stamp = it.gen + 1
	}
	in := it.g.In(v)
	it.lastArcs = len(in)
	if it.dense == nil {
		in = it.relaxSparse(v, d, in)
	}
	if it.dense != nil {
		it.relaxDense(v, d, in)
	}
	return v, d, true
}

// relaxSparse relaxes the arcs in into the just-settled v against the
// table. If claiming a node promotes the iterator it stops there and
// returns the arcs not yet relaxed, for relaxDense to finish.
func (it *sspIterator) relaxSparse(v graph.NodeID, d float64, in []graph.Edge) []graph.Edge {
	keys := &it.pq.keys
	for k, e := range in {
		u, w := e.To, e.W
		nd := d + w
		i, ok := it.probe(u)
		s := &it.tab[i]
		if !ok {
			*s = sparseSlot{node: u, stamp: it.gen, dist: nd, parent: v, pweight: w}
			it.pq.push(u, nd)
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
			it.pq.push(u, nd)
		} else if nd == s.dist && keys.Of(v) < keys.Of(s.parent) {
			// Equal-cost path through a smaller-identity parent; see relaxDense.
			s.parent = v
			s.pweight = w
		}
	}
	return nil
}

// relaxDense is relaxSparse over the direct-indexed arrays.
func (it *sspIterator) relaxDense(v graph.NodeID, d float64, in []graph.Edge) {
	keys := &it.pq.keys
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
			it.pq.push(u, nd)
		} else if nd == dist[u] && keys.Of(v) < keys.Of(parent[u]) {
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
