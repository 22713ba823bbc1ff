package core

// The staged query executor. A query runs as an explicit pipeline:
//
//	normalize -> resolve (term -> match set, through the snapshot's
//	match cache) -> seed origins -> expand -> emit
//
// The last three stages are the §3 backward expanding search
// (backward.go).

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"slices"
	"strings"

	"github.com/banksdb/banks/internal/graph"
)

// exec carries one query's state from the executor's resolution stage to
// the expansion stage.
type exec struct {
	s        *Searcher
	ar       *searchArena
	o        *Options
	stats    *Stats
	sets     [][]graph.NodeID
	keys     graph.Keys
	excluded map[int32]bool
	cb       func(*Answer) bool
	// faultBase is the fault meter's reading at query start; bytesFaulted
	// deltas against it to charge only this query's window (engine-global
	// meter, so concurrent queries' faults overlap — safety valve, not
	// precise accounting).
	faultBase int64
}

// bytesFaulted returns store bytes faulted since the query started; 0
// without an attached fault meter.
func (ex *exec) bytesFaulted() int64 {
	if ex.s.fault == nil {
		return 0
	}
	return ex.s.fault() - ex.faultBase
}

// cancelCheckMask sets how often the expansion loops poll ctx.Done():
// every cancelCheckMask+1 iterator pops. 256 pops is a few microseconds
// of work, so cancellation latency stays far below any plausible
// deadline while the steady-state cost of the check is noise.
const cancelCheckMask = 256 - 1

// Search runs the backward expanding search for the given terms.
func (s *Searcher) Search(terms []string, opts *Options) ([]*Answer, error) {
	answers, _, err := s.Query(context.Background(), Request{Terms: terms}, opts, nil)
	return answers, err
}

// SearchStats is Search plus execution statistics.
func (s *Searcher) SearchStats(terms []string, opts *Options) ([]*Answer, *Stats, error) {
	return s.Query(context.Background(), Request{Terms: terms}, opts, nil)
}

// Query is the staged query executor: it resolves the request's terms to
// node sets (plain, qualified or prefix matching per the request), runs
// the backward expanding search over the resolved sets under ctx, and
// returns the emitted answers with execution statistics. cb, when non-nil, sees every answer at
// emission time and may cancel by returning false (the search then stops
// cleanly with the answers emitted so far). When ctx is canceled or its
// deadline passes, the expansion loop stops within a few hundred iterator
// pops and Query returns ctx's error.
func (s *Searcher) Query(ctx context.Context, req Request, opts *Options, cb func(*Answer) bool) ([]*Answer, *Stats, error) {
	ar := acquireArena(s.g)
	defer releaseArena(ar)
	answers, stats, err := s.queryInArena(ctx, req, opts, cb, ar)
	// The arena goes back to the pool on return, so everything the caller
	// keeps must be copied off it. The answers themselves are heap-built
	// here (the arena slabs only back Session queries).
	st := new(Stats)
	*st = *stats
	st.Terms = append([]string(nil), stats.Terms...)
	st.MatchedNodes = append([]int(nil), stats.MatchedNodes...)
	var out []*Answer
	if len(answers) > 0 {
		out = append(out, answers...)
	}
	return out, st, err
}

// queryInArena runs the full pipeline with every per-query structure drawn
// from ar. The returned answers and stats are arena-resident in borrow
// mode and must be consumed before the arena serves another query.
func (s *Searcher) queryInArena(ctx context.Context, req Request, opts *Options, cb func(*Answer) bool, ar *searchArena) ([]*Answer, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ar.beginQuery()
	o := opts.withDefaultsInto(&ar.optsBuf)
	stats := &ar.statsBuf
	*stats = Stats{}

	var faultBase int64
	if s.fault != nil {
		faultBase = s.fault()
	}
	answers, err := s.runStages(ctx, req, o, cb, ar, stats, faultBase)
	if s.fault != nil {
		stats.BytesFaulted = s.fault() - faultBase
	}
	return answers, stats, err
}

func (s *Searcher) runStages(ctx context.Context, req Request, o *Options, cb func(*Answer) bool, ar *searchArena, stats *Stats, faultBase int64) ([]*Answer, error) {
	// Stage 1: normalize terms.
	clean := ar.cleanBuf
	for _, t := range req.Terms {
		t = strings.TrimSpace(strings.ToLower(t))
		if t != "" {
			clean = append(clean, t)
		}
	}
	ar.cleanBuf = clean
	if len(clean) == 0 {
		return nil, errors.New("core: empty query")
	}

	// Stage 2: locate S_i for each term (§3 step 1).
	keys := s.g.Keys()
	sets := ar.setsBuf
	active := ar.activeBuf
	for _, term := range clean {
		var set []graph.NodeID
		if qual, bare, ok := ParseQualifiedTerm(term); req.Qualified && ok {
			set = s.matchQualified(ar, req.DB, qual, bare, o, stats)
			canonicalizeSet(&keys, set)
		} else {
			buf := ar.termSet(len(sets))
			buf = s.matchTerm(ar, term, o, stats, buf)
			canonicalizeSet(&keys, buf)
			ar.termSets[len(sets)] = buf // retain any growth
			set = buf
			if len(set) == 0 && req.Prefix {
				// Owned by the prefix cache — must not be reordered in
				// place (node-id order, which is already canonical for
				// every view that serves prefix lookups).
				set = s.cache.LookupPrefix(s.ix, s.epoch, term)
			}
		}
		if len(set) == 0 {
			if o.RequireAllTerms {
				ar.setsBuf, ar.activeBuf = sets, active
				stats.Terms = active
				return nil, nil
			}
			stats.TermsDropped++
			continue
		}
		sets = append(sets, set)
		active = append(active, term)
	}
	ar.setsBuf, ar.activeBuf = sets, active
	stats.Terms = active
	matched := ar.matchedBuf
	for _, set := range sets {
		matched = append(matched, len(set))
	}
	ar.matchedBuf = matched
	stats.MatchedNodes = matched
	if len(sets) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stages 3-5: seed origins, expand, emit.
	ex := &ar.exBuf
	*ex = exec{
		s:         s,
		ar:        ar,
		o:         o,
		stats:     stats,
		sets:      sets,
		keys:      keys,
		excluded:  s.excludedTables(ar, o),
		cb:        cb,
		faultBase: faultBase,
	}
	// Resolution alone may have blown the byte budget (cold store, huge
	// posting lists): cut off before expansion starts.
	if o.Budget.MaxBytesFaulted > 0 && ex.bytesFaulted() >= o.Budget.MaxBytesFaulted {
		stats.BudgetExhausted = true
		stats.BudgetReason = "bytes"
		return nil, nil
	}
	if len(sets) == 1 {
		return searchSingleTerm(ctx, ex)
	}
	return runExpansion(ctx, ex)
}

// emitter drives the fixed-size output heap of §3 shared by the single-
// and multi-term paths: candidate answers are offered, deduplicated by
// hashed tree signature, buffered up to HeapSize, and emitted best-first
// on overflow and during the final drain.
type emitter struct {
	ar      *searchArena
	o       *Options
	stats   *Stats
	cb      func(*Answer) bool
	rh      resultHeap
	inHeap  map[uint64]*resultItem
	outSig  map[uint64]bool
	seq     int
	emitted []*Answer
	stopped bool
}

// newEmitter readies the arena-resident emitter: heap, emitted list and
// item slab all come from ar (reset by beginQuery), so steady-state
// emission allocates nothing.
func newEmitter(ar *searchArena, o *Options, stats *Stats, cb func(*Answer) bool) *emitter {
	em := &ar.emBuf
	*em = emitter{
		ar:      ar,
		o:       o,
		stats:   stats,
		cb:      cb,
		rh:      ar.rhBuf,
		inHeap:  ar.inHeap,
		outSig:  ar.outSig,
		emitted: ar.emittedBuf,
	}
	return em
}

func (em *emitter) emitBest() {
	item := heap.Pop(&em.rh).(*resultItem)
	delete(em.inHeap, item.sig)
	em.outSig[item.sig] = true
	em.emitted = append(em.emitted, item.ans)
	item.ans.Rank = len(em.emitted)
	if em.cb != nil && !em.cb(item.ans) {
		em.stopped = true
	}
}

func (em *emitter) offer(a *Answer) {
	if em.stopped {
		// The callback cancelled the search mid-visit: the expansion loop
		// only notices at its next pop, so candidates from the rest of
		// this visit still arrive here. Drop them — emitting would call
		// the callback again after it returned false (for QueryIter that
		// is a range-function panic), and buffering them would leak
		// answers the caller never saw into the partial results.
		return
	}
	sig := a.sigHash()
	if em.outSig[sig] {
		// A duplicate of an already-output answer is discarded even if its
		// relevance is higher (§3).
		em.stats.Duplicates++
		return
	}
	if prev, ok := em.inHeap[sig]; ok {
		em.stats.Duplicates++
		if a.Score > prev.ans.Score {
			prev.ans = a
			heap.Fix(&em.rh, prev.idx)
		}
		return
	}
	item := em.ar.newResultItem(a, sig, em.seq)
	em.seq++
	if len(em.rh) >= em.o.HeapSize {
		em.emitBest()
	}
	heap.Push(&em.rh, item)
	em.inHeap[sig] = item
}

// drain emits buffered answers best-first until TopK is reached or the
// heap empties.
func (em *emitter) drain() {
	for len(em.rh) > 0 && len(em.emitted) < em.o.TopK && !em.stopped {
		em.emitBest()
	}
}

// finish trims the overshoot (heap overflow during a single node visit can
// emit a result or two beyond TopK), fixes ranks, and hands the grown
// heap/emitted backing back to the arena for the next query.
func (em *emitter) finish() []*Answer {
	if len(em.emitted) > em.o.TopK {
		em.emitted = em.emitted[:em.o.TopK]
	}
	for i, a := range em.emitted {
		a.Rank = i + 1
	}
	em.ar.rhBuf = em.rh[:0]
	em.ar.emittedBuf = em.emitted
	return em.emitted
}

// canonicalizeSet orders a term's match set by stable (table, rid)
// identity. Posting lists arrive in node-id order, which coincides with
// canonical order for a built graph but not for an overlay's appended
// nodes. Origin
// slot numbering, iterator scheduling and the emission sequence all
// inherit this order, so pinning it here is what makes answers — and
// which of several equal-scored answers survive the output heap —
// independent of node numbering. The sortedness pre-check keeps the
// common already-canonical case at a linear scan.
func canonicalizeSet(keys *graph.Keys, set []graph.NodeID) {
	byKey := func(a, b graph.NodeID) int { return cmp.Compare(keys.Of(a), keys.Of(b)) }
	if !slices.IsSortedFunc(set, byKey) {
		slices.SortFunc(set, byKey)
	}
}

// iterEntry is one shortest-path iterator in the iterator heap, keyed by
// the distance of the next node it will output.
type iterEntry struct {
	it   *sspIterator
	next float64
	key  uint64 // stable (table, rid) identity of the origin; see graph.Keys
}

// before orders entries by (next distance, stable origin identity): with
// match sets canonicalized the whole iterator schedule — and therefore
// emission sequence — is independent of node numbering.
func (e iterEntry) before(o iterEntry) bool {
	return e.next < o.next || (e.next == o.next && e.key < o.key)
}

// iterHeap is a hand-rolled binary min-heap of iterator entries, stored by
// value to avoid per-entry allocations.
type iterHeap []iterEntry

func (h iterHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h iterHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popTop removes the root entry.
func (h *iterHeap) popTop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	if n > 1 {
		s[:n].siftDown(0)
	}
}

// resultItem is an answer in the fixed-size output heap (a max-heap on
// relevance: overflow emits the best answer seen so far).
type resultItem struct {
	ans *Answer
	idx int
	seq int
	sig uint64
}

type resultHeap []*resultItem

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].ans.Score != h[j].ans.Score {
		return h[i].ans.Score > h[j].ans.Score
	}
	return h[i].seq < h[j].seq // deterministic: offer order breaks score ties
}
func (h resultHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *resultHeap) Push(x interface{}) {
	it := x.(*resultItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
