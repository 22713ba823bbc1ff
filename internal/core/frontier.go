package core

// The pooled per-term frontier behind BatchedStrategy. A term's frontier
// is the set of shortest-path iterators rooted at its keyword nodes; for
// a fixed origin over an immutable graph snapshot that expansion is a
// pure function, so its settling order can be memoized once and replayed
// by every later query that shares the term (the Mragyati observation:
// keyword-search servers win by sharing per-term work across requests).
//
// The pool hands an iterator to at most one query at a time — checkout
// removes it from the pool, checkin returns it — so queries never share
// mutable state; a concurrent query that wants the same origin while it
// is checked out simply builds a fresh arena iterator. Replay yields
// exactly the pop sequence and paths a fresh run would (see the memo
// fields on sspIterator), which keeps the batched strategy
// answer-identical to the backward one.

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/banksdb/banks/internal/graph"
)

// DefaultFrontierPoolIters is the pool capacity used when a caller
// enables frontier pooling without choosing a size. A pooled iterator
// holds its node state — a table of 32-byte slots at most half full, or,
// once it has touched more than 1/32 of the graph, a dense block
// (24 bytes/node) on top of the table it outgrew (under 4 bytes/node) —
// plus its memoized trail (28 bytes per settled node) and checkpointed
// heap (24 bytes per entry). Typical entries cost a few KB; the cap bounds
// resident memory to roughly DefaultFrontierPoolIters × 80 × NumNodes bytes
// in the worst case of every pooled origin expanded to exhaustion.
const DefaultFrontierPoolIters = 32

// frontierPool caches warm, memoized per-origin iterators across queries.
// The pool can outlive the engine snapshot it was created for: carrying
// it across a non-structural publish (pure text mutations — identical
// node set, arcs and prestige) keeps the memoized expansions warm, while
// a structural publish bumps the pool's generation, clearing it and
// rejecting late checkins from queries still pinned to the old snapshot.
// A nil pool is valid and disables pooling.
type frontierPool struct {
	mu    sync.Mutex
	gen   uint64 // structural generation; entries are valid within one gen
	iters map[graph.NodeID]*sspIterator
	order []graph.NodeID // LRU order, oldest first
	max   int
	reuse atomic.Int64
}

func newFrontierPool(maxIters int) *frontierPool {
	if maxIters <= 0 {
		return nil
	}
	return &frontierPool{iters: make(map[graph.NodeID]*sspIterator, maxIters), max: maxIters}
}

// bumpGen advances the pool's structural generation and empties it; the
// cumulative reuse counter persists. Returns the new generation. Safe on
// nil (returns 0).
func (p *frontierPool) bumpGen() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	p.iters = make(map[graph.NodeID]*sspIterator, p.max)
	p.order = p.order[:0]
	return p.gen
}

// generation returns the pool's current structural generation. Safe on
// nil (0).
func (p *frontierPool) generation() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// checkout removes and returns the pooled iterator for origin, or nil.
// gen is the caller's snapshot generation: a mismatch (the pool moved on
// structurally) is a miss. The caller owns the iterator until checkin.
func (p *frontierPool) checkout(origin graph.NodeID, gen uint64) *sspIterator {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen {
		return nil
	}
	it, ok := p.iters[origin]
	if !ok {
		return nil
	}
	delete(p.iters, origin)
	p.dropFromOrder(origin)
	p.reuse.Add(1)
	return it
}

// checkin parks a memoized iterator for future queries on its origin,
// evicting the least recently used entry when full. A checkin whose gen
// no longer matches the pool's (a structural publish happened while the
// query ran) is dropped — its memoized trail describes a graph that no
// longer exists. An incoming iterator whose origin is already pooled
// keeps whichever trail is longer (the deeper expansion serves more
// replays).
func (p *frontierPool) checkin(it *sspIterator, gen uint64) {
	if p == nil || it == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen {
		return
	}
	if prev, ok := p.iters[it.origin]; ok {
		if len(prev.trail) >= len(it.trail) {
			return
		}
		p.iters[it.origin] = it
		return
	}
	for len(p.iters) >= p.max && len(p.order) > 0 {
		oldest := p.order[0]
		p.order = p.order[1:]
		delete(p.iters, oldest)
	}
	p.iters[it.origin] = it
	p.order = append(p.order, it.origin)
}

func (p *frontierPool) dropFromOrder(origin graph.NodeID) {
	for i, n := range p.order {
		if n == origin {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// reuses returns how many checkouts were served warm. Safe on nil.
func (p *frontierPool) reuses() int64 {
	if p == nil {
		return 0
	}
	return p.reuse.Load()
}

// size returns the resident iterator count (tests).
func (p *frontierPool) size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.iters)
}

// BatchedStrategy is the concurrency-oriented executor: term resolution
// goes through the single-flight admission layer (concurrent identical
// lookups coalesce on top of the match cache) and per-term frontiers are
// checked out of the shared pool of memoized iterators, so a burst of
// queries sharing terms shares resolution and expansion work instead of
// repeating it. The expansion algorithm is the same backward expanding
// search, so answers (and execution traces) are identical to
// BackwardStrategy.
type BatchedStrategy struct{}

// Name implements Strategy.
func (BatchedStrategy) Name() string { return StrategyBatched }

func (BatchedStrategy) resolver(s *Searcher) termResolver {
	if s.flight == nil {
		return cacheResolver{s}
	}
	return flightResolver{s}
}

func (BatchedStrategy) run(ctx context.Context, ex *exec) ([]*Answer, error) {
	if len(ex.sets) == 1 {
		return searchSingleTerm(ctx, ex)
	}
	return runExpansion(ctx, ex, &frontierSource{ar: ex.ar, pool: ex.s.frontiers, gen: ex.s.frontierGen, stats: ex.stats})
}

// frontierSource serves the expansion loop from the shared frontier pool,
// falling back to fresh arena iterators (memoized, so they can be pooled
// afterwards) on a pool miss.
type frontierSource struct {
	ar    *searchArena
	pool  *frontierPool
	gen   uint64 // the query's snapshot generation
	stats *Stats
}

func (f *frontierSource) acquire(g graph.View, origin graph.NodeID) *sspIterator {
	if it := f.pool.checkout(origin, f.gen); it != nil {
		f.stats.FrontierReused++
		it.ar = f.ar // where a promotion during this query finds its block
		it.rewind()
		return it
	}
	it := f.ar.newIterator(g, origin)
	if f.pool != nil {
		it.memo = true
	}
	return it
}

// releaseAll parks the query's memoized iterators in the pool and detaches
// them from the arena — its origin records, and the iterator's own pointer
// to it — so the arena reclaims neither them nor a dense block they
// promoted into: the block now belongs to the iterator for good.
// Non-memoized iterators (pool disabled) stay with the arena.
func (f *frontierSource) releaseAll(ar *searchArena) {
	if f.pool == nil {
		return
	}
	for i := range ar.origins {
		if it := ar.origins[i].it; it != nil && it.memo {
			ar.origins[i].it = nil
			it.ar = nil
			f.pool.checkin(it, f.gen)
		}
	}
}
