package core

import (
	"sync"

	"github.com/banksdb/banks/internal/graph"
)

// searchArena is the scratch state for one query. The per-query maps
// (membership marks, origin slots, visit slots) are flat NodeID-indexed
// slices — 20 bytes/node — invalidated in O(1) between queries by bumping
// a generation stamp instead of clearing. Per-iterator state is not sized
// to the graph: an iterator holds a table proportional to the nodes it
// touched and borrows a dense 24 bytes/node block from freeDense only once
// it has swept a real fraction of the graph (see sspIterator), so a
// query's scratch bytes are bounded by the arcs it relaxed — the bounded
// search-time footprint EMBANKS argues for.
//
// Arenas are recycled through one process-wide pool (arenaPool), not one
// per Searcher, so a snapshot publish — a new Searcher per Apply, Compact
// or Refresh — does not start the next query on a cold arena, and the
// steady-state allocation cost of a query is just its answers. Sharing is
// safe because an arena holds nothing that belongs to a snapshot: its
// node-indexed maps are invalidated by generation bumps, a released
// iterator drops its view and key table, and excluded-table sets are
// re-resolved every query. All an arena needs from a view is maps at least
// as wide as its NumNodes(); acquireArena widens them, with headroom, when
// a bigger view draws a narrower arena, and a smaller view (a cluster
// partition) runs on a wider arena as is.
//
// An arena is owned by exactly one search from acquire to release; none of
// its state is safe for concurrent use.
type searchArena struct {
	n int // width of the node-indexed maps: the widest view served, plus headroom

	// mark is a stamped membership set used by short-lived phases that
	// never overlap: matchTerm's per-term dedup and buildAnswer's in-tree
	// set. A slot is a member iff mark[n] == markGen.
	mark    []uint32
	markGen uint32

	// originIdx maps a keyword node to its slot in origins for the whole
	// query; valid iff originStamp[n] == originGen.
	originIdx   []int32
	originStamp []uint32
	originGen   uint32

	// visitIdx maps a visited node to its slot in the chunked termLists
	// storage; valid iff visitStamp[n] == visitGen.
	visitIdx   []int32
	visitStamp []uint32
	visitGen   uint32
	visited    int

	// origins are the keyword nodes of the current query, each with its
	// shortest-path iterator; masks holds per-origin term-membership
	// bitmasks, maskWords uint64 words per origin.
	origins   []originRec
	masks     []uint64
	maskWords int

	// live counts, per term, the origins whose iterator is still in the
	// iterator heap; finished is the worklist of terms whose count reached
	// zero, waiting for the retirement rule (see exec.iteratorDone).
	live     []int32
	finished []int

	// termLists is the backing store for the per-visited-node term lists
	// (v.L_i in the Figure 3 pseudocode), chunked nTerms slots per visited
	// node. Inner slices keep their capacity across queries.
	termLists []([]graph.NodeID)
	listsUsed int

	// freeIters are recycled shortest-path iterators; each keeps its sparse
	// table and heap, reused via generation bumps. freeDense are the dense
	// blocks promoted iterators borrow for one query, each sized to the view
	// it last served (see takeDense): the list grows to the most iterators
	// that went deep in a single query, not to every iterator that ever did.
	freeIters []*sspIterator
	freeDense []*denseBlock
	// tie is the scratch every iterator's heap sorts a tie bucket with.
	tie tieScratch

	// Result-heap dedup state, keyed by hashed tree signature.
	inHeap map[uint64]*resultItem
	outSig map[uint64]bool

	ih           iterHeap
	comboBuf     []graph.NodeID
	scratchEdges []TreeEdge

	// Per-query pipeline state, reused so a steady-state query performs no
	// heap allocation: the defaults-applied options copy, the stats block,
	// the executor/emitter/cross-product frames and the normalization and
	// match-set buffers all live here. termSets holds one reusable node
	// buffer per query term (inner capacity retained across queries).
	optsBuf     Options
	statsBuf    Stats
	exBuf       exec
	emBuf       emitter
	gsBuf       genState
	cleanBuf    []string
	activeBuf   []string
	setsBuf     [][]graph.NodeID
	termSets    [][]graph.NodeID
	matchedBuf  []int
	edgeBuf     []TreeEdge
	excludedBuf map[int32]bool

	// Emitter backing: the output heap, the emitted list and the slab the
	// heap's items come from. resultItems never outlive the query, so the
	// slab serves sessions and pooled queries alike.
	rhBuf      resultHeap
	emittedBuf []*Answer
	itemSlab   []resultItem

	// matchFrame + matchFn: reusable EachTableNode visitor for matchTerm.
	// The closure is built once per arena and reads its per-call state from
	// matchBuf, so the metadata expansion walk captures nothing — a fresh
	// closure per call would heap-allocate itself and every captured local.
	matchBuf matchFrame
	matchFn  func(graph.NodeID) bool

	// borrow enables the answer slabs: Answers, their edge lists and their
	// term-node lists are carved out of arena-owned storage instead of the
	// heap, and returned results are only valid until the next query on the
	// owning Session. Pooled (non-session) queries leave this false and
	// allocate answers normally — they escape to arbitrary callers.
	borrow     bool
	answerSlab []Answer
	edgeSlab   []TreeEdge
	nodeSlab   []graph.NodeID
}

// beginQuery resets the per-query pipeline buffers (capacities retained).
// It starts with the release-style recycle: a pooled arena already ran it
// in releaseArena (idempotent), but a Session arena skips releaseArena
// between queries — its borrowed results must survive until this call.
func (a *searchArena) beginQuery() {
	a.release()
	a.cleanBuf = a.cleanBuf[:0]
	a.activeBuf = a.activeBuf[:0]
	a.setsBuf = a.setsBuf[:0]
	a.matchedBuf = a.matchedBuf[:0]
	a.edgeBuf = a.edgeBuf[:0]
	a.rhBuf = a.rhBuf[:0]
	a.emittedBuf = a.emittedBuf[:0]
	a.itemSlab = a.itemSlab[:0]
	if a.borrow {
		a.answerSlab = a.answerSlab[:0]
		a.edgeSlab = a.edgeSlab[:0]
		a.nodeSlab = a.nodeSlab[:0]
	}
}

// termSet returns the reusable match-set buffer for term slot k, empty.
func (a *searchArena) termSet(k int) []graph.NodeID {
	for len(a.termSets) <= k {
		a.termSets = append(a.termSets, nil)
	}
	return a.termSets[k][:0]
}

// newResultItem carves an output-heap item from the arena slab. Slab
// growth moves the backing array, but previously handed-out pointers keep
// the old backing alive and are never re-derived by index, so they stay
// valid; steady state reaches a fixed capacity and stops allocating.
func (a *searchArena) newResultItem(ans *Answer, sig uint64, seq int) *resultItem {
	n := len(a.itemSlab)
	if n < cap(a.itemSlab) {
		a.itemSlab = a.itemSlab[:n+1]
		a.itemSlab[n] = resultItem{ans: ans, sig: sig, seq: seq}
	} else {
		a.itemSlab = append(a.itemSlab, resultItem{ans: ans, sig: sig, seq: seq})
	}
	return &a.itemSlab[n]
}

// newAnswer returns a zeroed Answer: from the arena slab in borrow mode
// (valid until the next query on the owning Session), from the heap
// otherwise.
func (a *searchArena) newAnswer() *Answer {
	if !a.borrow {
		return &Answer{}
	}
	n := len(a.answerSlab)
	if n < cap(a.answerSlab) {
		a.answerSlab = a.answerSlab[:n+1]
		a.answerSlab[n] = Answer{}
	} else {
		a.answerSlab = append(a.answerSlab, Answer{})
	}
	return &a.answerSlab[n]
}

// copyEdges copies src into answer-owned storage (slab in borrow mode).
func (a *searchArena) copyEdges(src []TreeEdge) []TreeEdge {
	if len(src) == 0 {
		return nil
	}
	if !a.borrow {
		return append([]TreeEdge(nil), src...)
	}
	n := len(a.edgeSlab)
	a.edgeSlab = append(a.edgeSlab, src...)
	return a.edgeSlab[n:len(a.edgeSlab):len(a.edgeSlab)]
}

// copyNodes copies src into answer-owned storage (slab in borrow mode).
func (a *searchArena) copyNodes(src []graph.NodeID) []graph.NodeID {
	if len(src) == 0 {
		return nil
	}
	if !a.borrow {
		return append([]graph.NodeID(nil), src...)
	}
	n := len(a.nodeSlab)
	a.nodeSlab = append(a.nodeSlab, src...)
	return a.nodeSlab[n:len(a.nodeSlab):len(a.nodeSlab)]
}

// matchFrame is the mutable state of one metadata-expansion walk (the
// EachTableNode loop in matchTerm), held in the arena so the shared
// visitor closure can reach it without per-call captures.
type matchFrame struct {
	gen          uint32
	limit        int
	metaAdmitted int
	truncated    bool
	set          []graph.NodeID
}

// matchVisitor returns the arena's cached EachTableNode callback,
// building it on first use. It operates on matchBuf, which the caller
// must prime (and drain set from) around each walk.
func (a *searchArena) matchVisitor() func(graph.NodeID) bool {
	if a.matchFn == nil {
		a.matchFn = func(n graph.NodeID) bool {
			f := &a.matchBuf
			if a.mark[n] == f.gen {
				return true
			}
			if f.limit > 0 && f.metaAdmitted >= f.limit {
				f.truncated = true
				return false
			}
			a.mark[n] = f.gen
			f.set = append(f.set, n)
			f.metaAdmitted++
			return true
		}
	}
	return a.matchFn
}

// originRec is one keyword node of the current query.
type originRec struct {
	node graph.NodeID
	it   *sspIterator
}

// arenaPool recycles searchArenas across every Searcher in the process;
// acquireArena and releaseArena are its only users.
var arenaPool sync.Pool

// acquireArena checks an arena out of the pool (or makes one) wide enough
// for g; releaseArena puts it back after wiping its per-query state.
func acquireArena(g graph.View) *searchArena {
	a, _ := arenaPool.Get().(*searchArena)
	if a == nil {
		return newSearchArena(g.NumNodes())
	}
	a.fit(g.NumNodes())
	return a
}

func releaseArena(a *searchArena) {
	a.release()
	arenaPool.Put(a)
}

// newSearchArena returns a fresh arena wide enough for an n-node view.
func newSearchArena(n int) *searchArena {
	a := &searchArena{
		inHeap: make(map[uint64]*resultItem),
		outSig: make(map[uint64]bool),
	}
	a.fit(n)
	return a
}

// fit widens the node-indexed maps to serve an n-node view. It
// reallocates only when n exceeds the current width, and then with n/8
// headroom, so the nodes an overlay appends between Compacts do not force
// a regrow per publish. The new maps start zeroed, which every generation
// counter (always >= 1 once bumped) reads as unset.
func (a *searchArena) fit(n int) {
	if n <= a.n {
		return
	}
	n += n / 8
	a.n = n
	a.mark = make([]uint32, n)
	a.originIdx = make([]int32, n)
	a.originStamp = make([]uint32, n)
	a.visitIdx = make([]int32, n)
	a.visitStamp = make([]uint32, n)
}

// bumpGen advances a generation counter, zeroing the stamp array on the
// (roughly once per 4 billion queries) wraparound so stale stamps can never
// alias the new generation.
func bumpGen(gen *uint32, stamps []uint32) uint32 {
	*gen++
	if *gen == 0 {
		for i := range stamps {
			stamps[i] = 0
		}
		*gen = 1
	}
	return *gen
}

// bumpMark starts a fresh membership set; members are slots with
// mark[n] == returned generation.
func (a *searchArena) bumpMark() uint32 { return bumpGen(&a.markGen, a.mark) }

// beginOrigins resets the node -> origin-slot mapping for a new query with
// nTerms search terms.
func (a *searchArena) beginOrigins(nTerms int) {
	bumpGen(&a.originGen, a.originStamp)
	a.origins = a.origins[:0]
	a.masks = a.masks[:0]
	a.maskWords = (nTerms + 63) / 64
	if cap(a.live) < nTerms {
		a.live = make([]int32, nTerms)
	}
	a.live = a.live[:nTerms]
	clear(a.live)
}

// originIndex returns the origin slot of node n, or -1.
func (a *searchArena) originIndex(n graph.NodeID) int32 {
	if a.originStamp[n] == a.originGen {
		return a.originIdx[n]
	}
	return -1
}

// addOrigin registers node n as a keyword node and returns its slot.
func (a *searchArena) addOrigin(n graph.NodeID) int32 {
	i := int32(len(a.origins))
	a.origins = append(a.origins, originRec{node: n})
	for k := 0; k < a.maskWords; k++ {
		a.masks = append(a.masks, 0)
	}
	a.originStamp[n] = a.originGen
	a.originIdx[n] = i
	return i
}

// originTerms returns the term bitmask words of origin slot i.
func (a *searchArena) originTerms(i int32) []uint64 {
	return a.masks[int(i)*a.maskWords : (int(i)+1)*a.maskWords]
}

// beginVisits resets the node -> visit-slot mapping.
func (a *searchArena) beginVisits() {
	bumpGen(&a.visitGen, a.visitStamp)
	a.visited = 0
}

// nodeLists returns the nTerms per-term lists of visited node v, creating
// its slot on first use. Inner slices retain capacity across queries.
func (a *searchArena) nodeLists(v graph.NodeID, nTerms int) []([]graph.NodeID) {
	var vi int32
	if a.visitStamp[v] == a.visitGen {
		vi = a.visitIdx[v]
	} else {
		vi = int32(a.visited)
		a.visited++
		a.visitStamp[v] = a.visitGen
		a.visitIdx[v] = vi
	}
	need := (int(vi) + 1) * nTerms
	for len(a.termLists) < need {
		a.termLists = append(a.termLists, nil)
	}
	if need > a.listsUsed {
		a.listsUsed = need
	}
	return a.termLists[int(vi)*nTerms : need]
}

// reached reports whether some iterator of term t has settled node v,
// i.e. whether v's list L_t is non-empty.
func (a *searchArena) reached(v graph.NodeID, t, nTerms int) bool {
	if a.visitStamp[v] != a.visitGen {
		return false
	}
	return len(a.termLists[int(a.visitIdx[v])*nTerms+t]) > 0
}

// newIterator hands out a recycled (or fresh) shortest-path iterator rooted
// at origin. The caller must keep it reachable from a.origins so release
// can reclaim it.
func (a *searchArena) newIterator(g graph.View, origin graph.NodeID) *sspIterator {
	var it *sspIterator
	if k := len(a.freeIters); k > 0 {
		it = a.freeIters[k-1]
		a.freeIters = a.freeIters[:k-1]
	} else {
		it = &sspIterator{ar: a}
	}
	it.reset(g, origin)
	return it
}

// takeDense hands an iterator promoting on an n-node view a dense block
// of length n with every node untouched. It recycles a free block whose
// capacity covers n, clearing only visit[:n], so a small view (a cluster
// partition) drawing an arena that once served a big one clears and holds
// no more than it needs. Only when no free block fits does it allocate one,
// with n/8 headroom for overlay appends, and then it drops one free block
// that did not fit, so the arena never owns more blocks than the most that
// went deep in one query.
func (a *searchArena) takeDense(n int) *denseBlock {
	for i := len(a.freeDense) - 1; i >= 0; i-- {
		if b := a.freeDense[i]; cap(b.visit) >= n {
			last := len(a.freeDense) - 1
			a.freeDense[i] = a.freeDense[last]
			a.freeDense[last] = nil
			a.freeDense = a.freeDense[:last]
			b.resize(n)
			clear(b.visit)
			return b
		}
	}
	if k := len(a.freeDense); k > 0 {
		a.freeDense[k-1] = nil
		a.freeDense = a.freeDense[:k-1]
	}
	b := newDenseBlock(n + n/8)
	b.resize(n)
	return b
}

// release returns all per-query state to the arena so the next search
// reuses its memory. Called exactly once per search, after the last answer
// has been materialized.
func (a *searchArena) release() {
	for i := range a.origins {
		if it := a.origins[i].it; it != nil {
			// Drop the view and its key table: a pooled arena outlives
			// the snapshot it last served and must not pin it.
			it.g = nil
			it.pq.keys = graph.Keys{}
			if it.dense != nil {
				a.freeDense = append(a.freeDense, it.dense)
				it.dense = nil
			}
			a.freeIters = append(a.freeIters, it)
			a.origins[i].it = nil
		}
	}
	a.origins = a.origins[:0]
	a.masks = a.masks[:0]
	for i := 0; i < a.listsUsed; i++ {
		a.termLists[i] = a.termLists[i][:0]
	}
	a.listsUsed = 0
	a.ih = a.ih[:0]
	clear(a.inHeap)
	clear(a.outSig)
	// The pipeline frames point at the Searcher, its key table and match
	// sets of the last query, which may be a retired snapshot's.
	a.exBuf = exec{}
	a.emBuf = emitter{}
	clear(a.setsBuf[:cap(a.setsBuf)])
}
