package core

// The paper's Figure 3 backward expanding search: the expansion stage of
// the staged pipeline. Every keyword node gets a fresh shortest-path
// iterator from the query's arena, per query.

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"github.com/banksdb/banks/internal/graph"
)

// searchSingleTerm handles n=1 exactly: any tree with edges has a
// single-child root and is discarded by the §3 rule, so the answers are
// precisely the matching nodes, ranked by relevance (EScore of a node tree
// is 1, so prestige separates them — the "Mohan" anecdote). Answers flow
// through the same fixed-size output heap as the multi-term path, so the
// emission contract (approximate relevance order, governed by HeapSize) is
// identical for both.
func searchSingleTerm(ctx context.Context, ex *exec) ([]*Answer, error) {
	s, o, stats := ex.s, ex.o, ex.stats
	em := newEmitter(ex.ar, o, stats, ex.cb)
	for i, n := range ex.sets[0] {
		if em.stopped || len(em.emitted) >= o.TopK {
			break
		}
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ex.excluded[s.g.TableOf(n)] {
			stats.ExcludedRoots++
			continue
		}
		a := ex.ar.newAnswer()
		a.Root = n
		ex.ar.comboBuf = append(ex.ar.comboBuf[:0], n)
		a.TermNodes = ex.ar.copyNodes(ex.ar.comboBuf)
		scoreAnswer(a, s.g, o.Score)
		stats.Generated++
		em.offer(a)
	}
	em.drain()
	return em.finish(), nil
}

// runExpansion is the backward expanding search of Figure 3 over two or
// more terms. cb (via the emitter), when non-nil, observes answers at
// emission time and may cancel the search. The expansion loop polls ctx
// every cancelCheckMask+1 iterator pops so a canceled context or an
// expired deadline stops a long-running expansion promptly; the context's
// error is then returned and no answers are. Unlike Figure 3, the loop also
// ends when no answer is possible any more: iteratorDone retires iterators
// that cannot contribute.
func runExpansion(ctx context.Context, ex *exec) ([]*Answer, error) {
	s, ar, o, stats := ex.s, ex.ar, ex.o, ex.stats
	n := len(ex.sets)

	// A node may match several terms; it gets one iterator and one origin
	// slot whose bitmask records the terms it matched, and counts once
	// toward the live iterators of each.
	ar.beginOrigins(n)
	for ti, set := range ex.sets {
		for _, node := range set {
			oi := ar.originIndex(node)
			if oi < 0 {
				oi = ar.addOrigin(node)
			}
			w, bit := &ar.originTerms(oi)[ti/64], uint64(1)<<uint(ti%64)
			if *w&bit == 0 {
				*w |= bit
				ar.live[ti]++
			}
		}
	}
	ih := ar.ih[:0]
	for i := range ar.origins {
		// A term can match an enormous node set; one iterator (plus a
		// store-faulting Peek) per origin makes this loop long enough to
		// need its own cancellation polling.
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				ar.ih = ih
				return nil, err
			}
		}
		it := ar.newIterator(s.g, ar.origins[i].node)
		ar.origins[i].it = it
		if _, d, ok := it.Peek(); ok {
			ih = append(ih, iterEntry{it: it, next: d, key: ex.keys.Of(ar.origins[i].node)})
		}
	}
	ih.init()

	// Per-visited-node term lists (v.L_i in the pseudocode) live in the
	// arena's chunked dense storage.
	ar.beginVisits()

	em := newEmitter(ar, o, stats, ex.cb)

	if cap(ar.comboBuf) < n {
		ar.comboBuf = make([]graph.NodeID, n)
	}
	combo := ar.comboBuf[:n]

	// The cross-product generator lives in the arena (genState) rather
	// than in closures: the recursive `rec` closure this used to build was
	// one heap allocation per generate call — per pop per matched term —
	// and is the difference between a steady state that allocates and one
	// that does not.
	gs := &ar.gsBuf
	*gs = genState{ex: ex, em: em, n: n, combo: combo}

	budget := o.Budget
	for len(ih) > 0 && len(em.emitted) < o.TopK && !em.stopped {
		// Budget checks. Pops and arcs are deterministic per
		// (snapshot, query) — a fresh arena and a recycled one truncate at
		// the same point — so budget-killed answers are reproducible. Bytes
		// faulted is engine-global and polled at the cancel cadence: a
		// safety valve against cold-store blowups, not exact accounting.
		if stats.Pops >= budget.MaxPops {
			stats.BudgetExhausted = true
			stats.BudgetReason = "pops"
			break
		}
		if budget.MaxArcsScanned > 0 && stats.ArcsScanned >= budget.MaxArcsScanned {
			stats.BudgetExhausted = true
			stats.BudgetReason = "arcs"
			break
		}
		if stats.Pops&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				ar.ih = ih
				return nil, err
			}
			if budget.MaxBytesFaulted > 0 && ex.bytesFaulted() >= budget.MaxBytesFaulted {
				stats.BudgetExhausted = true
				stats.BudgetReason = "bytes"
				break
			}
		}
		entry := &ih[0]
		it := entry.it
		oi := ar.originIndex(it.origin)
		v, _, ok := it.Next()
		if !ok {
			ih.popTop()
			ih = ex.iteratorDone(ih, oi)
			continue
		}
		stats.Pops++
		stats.ArcsScanned += it.lastArcs
		_, d, more := it.Peek()
		if more {
			entry.next = d
			ih.siftDown(0)
		} else {
			ih.popTop()
		}
		for wi, word := range ar.originTerms(oi) {
			for word != 0 {
				ti := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				gs.generate(v, it.origin, ti)
			}
		}
		if !more {
			// After generate: v's lists must include this last pop before
			// the retirement rule reads them.
			ih = ex.iteratorDone(ih, oi)
		}
	}
	em.drain()
	ar.ih = ih
	return em.finish(), nil
}

// iteratorDone accounts for origin oi's iterator leaving the heap and
// applies the retirement rule to every term left without a live iterator.
// It returns the filtered heap.
//
// A term t with no live iterator is finished: its lists L_t never grow
// again, so every later answer is rooted at a node some t-iterator already
// settled. Every FK link yields both arcs (graph.View), so reachability is
// symmetric and an iterator settles only its origin's connected component —
// all of it, if it exhausts. Call a component complete when every term has
// an origin in it; only complete components hold answers. No iterator of a
// complete component C is ever retired: t has an origin in C whose iterator
// (not retired, by induction) exhausted, settling all of C, every origin in
// it included. So a live iterator whose origin no t-iterator reached sits
// in an incomplete component, nothing it settles can root an answer, and
// it is retired. The argument holds when t was emptied by retirement
// rather than by exhaustion: the iterators it lost were all in incomplete
// components. The survivors' settle order, the answers and every Stats
// field but Pops, ArcsScanned and Retired are as without the rule; once
// only useless iterators remain, the heap empties and the loop stops.
//
// Cost: one O(|heap|) filter and re-heapify per finished term.
func (ex *exec) iteratorDone(ih iterHeap, oi int32) iterHeap {
	if ex.s.noRetire {
		return ih
	}
	ar, n := ex.ar, len(ex.sets)
	fin := ex.dropLive(ar.finished[:0], oi)
	for len(fin) > 0 {
		t := fin[len(fin)-1]
		fin = fin[:len(fin)-1]
		k := 0
		for _, e := range ih {
			if ar.reached(e.it.origin, t, n) {
				ih[k] = e
				k++
				continue
			}
			ex.stats.Retired++
			fin = ex.dropLive(fin, ar.originIndex(e.it.origin))
		}
		if k < len(ih) {
			ih = ih[:k]
			ih.init()
		}
	}
	ar.finished = fin
	return ih
}

// dropLive removes origin oi's iterator from its terms' live counts and
// appends to fin every term whose count reaches zero.
func (ex *exec) dropLive(fin []int, oi int32) []int {
	live := ex.ar.live
	for wi, word := range ex.ar.originTerms(oi) {
		for word != 0 {
			ti := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if live[ti]--; live[ti] == 0 {
				fin = append(fin, ti)
			}
		}
	}
	return fin
}

// genState is the arena-resident frame of the cross-product generator
// (CrossProduct in the Figure 3 pseudocode): all new connection trees
// rooted at v that use origin as the term-ti leaf.
type genState struct {
	ex    *exec
	em    *emitter
	n     int
	combo []graph.NodeID

	// per-generate-call state. rootExcluded is looked up only once a
	// combination completes (rootChecked): most calls complete none.
	v            graph.NodeID
	ti           int
	l            [][]graph.NodeID
	rootChecked  bool
	rootExcluded bool
	produced     int
}

func (gs *genState) generate(v graph.NodeID, origin graph.NodeID, ti int) {
	ex := gs.ex
	gs.v = v
	gs.ti = ti
	gs.l = ex.ar.nodeLists(v, gs.n)
	gs.rootChecked = false
	gs.produced = 0
	gs.combo[ti] = origin
	gs.rec(0)
	gs.l[ti] = append(gs.l[ti], origin)
}

// rec walks the cross product of {origin} with the other term lists.
func (gs *genState) rec(term int) bool {
	ex := gs.ex
	if term == gs.n {
		if gs.produced >= ex.o.MaxCombosPerVisit {
			ex.stats.CombosTruncated = true
			return false
		}
		gs.produced++
		ex.stats.Generated++
		if !gs.rootChecked {
			gs.rootExcluded = ex.excluded[ex.s.g.TableOf(gs.v)]
			gs.rootChecked = true
		}
		if gs.rootExcluded {
			ex.stats.ExcludedRoots++
			return true
		}
		if a := ex.buildAnswer(gs.v, gs.combo); a != nil {
			gs.em.offer(a)
		}
		return true
	}
	if term == gs.ti {
		return gs.rec(term + 1)
	}
	if len(gs.l[term]) == 0 {
		return false
	}
	for _, other := range gs.l[term] {
		gs.combo[term] = other
		if !gs.rec(term + 1) {
			return false
		}
	}
	return true
}

// buildAnswer materializes the connection tree rooted at v whose term-i
// leaf is combo[i], as the union of the per-iterator shortest paths. The
// paper's pseudocode treats this union as a tree, but two shortest paths
// can diverge and reconverge, giving a node two parents; we splice instead:
// once a path reaches a node already in the tree, the existing route from
// the root is reused and the walk continues from that node. Every leaf
// stays reachable from the root and the result is a genuine tree. Returns
// nil for trees pruned by the single-child-root rule, which spares a
// one-edge tree between two matching tuples.
func (ex *exec) buildAnswer(v graph.NodeID, combo []graph.NodeID) *Answer {
	ar := ex.ar
	gen := ar.bumpMark()
	ar.mark[v] = gen
	edges := ar.edgeBuf[:0]
	scratch := ar.scratchEdges
	for _, origin := range combo {
		oi := ar.originIndex(origin)
		if oi < 0 || ar.origins[oi].it == nil {
			ar.scratchEdges = scratch[:0]
			ar.edgeBuf = edges[:0]
			return nil
		}
		scratch = ar.origins[oi].it.PathEdges(v, scratch[:0])
		for _, e := range scratch {
			if ar.mark[e.To] == gen {
				continue // reuse the existing root->e.To route
			}
			ar.mark[e.To] = gen
			edges = append(edges, e)
		}
	}
	ar.scratchEdges = scratch[:0]
	ar.edgeBuf = edges
	// §3's single-child-root rule holds only where the tree minus its
	// root still covers every term. A one-edge tree whose root matches a
	// term is the only answer that joins two adjacent matching tuples.
	if len(edges) > 0 && rootChildren(ar, v, edges) == 1 && !(len(edges) == 1 && slices.Contains(combo, v)) {
		ex.stats.SingleChildRoots++
		return nil
	}
	// Canonical (table, rid) edge order: sibling order in rendered trees
	// and the FP summation order of the weight — hence the exact score —
	// come out identical under any node numbering.
	keys := &ex.keys
	slices.SortFunc(edges, func(x, y TreeEdge) int {
		if c := cmp.Compare(keys.Of(x.From), keys.Of(y.From)); c != 0 {
			return c
		}
		return cmp.Compare(keys.Of(x.To), keys.Of(y.To))
	})
	a := ar.newAnswer()
	a.Root = v
	for i := range edges {
		edges[i].W = arcWeight(ex.s.g, edges[i].From, edges[i].To) // PathEdges leaves it 0
		a.Weight += edges[i].W
	}
	a.Edges = ar.copyEdges(edges)
	a.TermNodes = ar.copyNodes(combo)
	scoreAnswer(a, ex.s.g, ex.o.Score)
	return a
}

// rootChildren counts the distinct direct children of the root over the
// arena's mark set; the §3 rule discards trees whose root has exactly one
// child, since the smaller tree obtained by removing the root is also
// generated (buildAnswer spares the one-edge tree, where it is not).
func rootChildren(ar *searchArena, root graph.NodeID, edges []TreeEdge) int {
	gen := ar.bumpMark()
	c := 0
	for _, e := range edges {
		if e.From == root && ar.mark[e.To] != gen {
			ar.mark[e.To] = gen
			c++
		}
	}
	return c
}
