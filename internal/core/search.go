package core

import (
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// Options control one search.
type Options struct {
	// TopK is the number of answers to return (default 10).
	TopK int
	// HeapSize is the capacity of the fixed-size output heap that
	// approximately re-sorts answers by relevance before they are emitted
	// (§3; default 20). Larger values sort better but delay first results.
	// Both the multi-term and the single-term paths emit through this
	// heap, so with a small HeapSize even single-term results arrive in
	// approximate (not exact) relevance order.
	HeapSize int
	// Score holds the §2.3 ranking parameters.
	Score ScoreOptions
	// ExcludedRootTables lists relations whose tuples may not serve as
	// information nodes (the paper's example: Writes). Matching and
	// traversal through them still happen.
	ExcludedRootTables []string
	// MetadataNodeLimit caps how many nodes a metadata (table/column
	// name) match expands to (default 1000, 0 = unlimited). The paper
	// notes metadata keywords matching huge node sets as an open
	// performance problem (§7); the cap is reported in Stats.
	MetadataNodeLimit int
	// Budget is the per-query cost budget. Exhausting any axis stops the
	// expansion cleanly: answers emitted so far are returned and
	// Stats.BudgetExhausted/BudgetReason report the truncation.
	Budget Budget
	// MaxCombosPerVisit caps the cross-product expansion at one node
	// visit (default 10,000); truncation is reported in Stats.
	MaxCombosPerVisit int
	// RequireAllTerms, when true (the default), returns no answers if
	// some term matches nothing. When false, unmatched terms are dropped
	// (the relaxation the paper mentions after the answer model).
	RequireAllTerms bool
}

// Budget bounds how much work one query may do before it is cut off with
// a partial answer. Budgets turn pathological queries (huge match sets,
// disconnected keywords, cold stores) from latency outliers into fast,
// flagged truncations — the serving tier's per-query cost control.
// Iterators that can no longer reach any answer are retired before they
// spend the budget (Stats.Retired), so a query whose remaining work was all
// such iterators ends unflagged with the answers an unbudgeted run returns.
type Budget struct {
	// MaxPops bounds Dijkstra iterator pops, a safety valve for long
	// expansions (0: the default of 2,000,000). Disconnected keywords
	// rarely reach it: iterators that cannot reach an answer are retired
	// (backward.go). Pops and arcs are deterministic per (snapshot,
	// query), so truncation under these two axes is reproducible.
	MaxPops int
	// MaxArcsScanned bounds reverse arcs relaxed during expansion
	// (0: unlimited). Arc cost tracks the real work of dense hub nodes,
	// which pops alone under-count.
	MaxArcsScanned int
	// MaxBytesFaulted bounds bytes faulted from the disk store during the
	// query (0: unlimited; no effect without a store-backed engine and an
	// attached fault meter). The meter is engine-global, so concurrent
	// queries' faults charge each other — this axis is a safety valve, not
	// a precise accountant.
	MaxBytesFaulted int64
}

// defaultOpts is the value the exported DefaultOptions copies from; the
// hot path reads its fields directly so applying defaults never allocates.
var defaultOpts = Options{
	TopK:              10,
	HeapSize:          20,
	Score:             DefaultScoreOptions(),
	MetadataNodeLimit: 1000,
	Budget:            Budget{MaxPops: 2_000_000},
	MaxCombosPerVisit: 10_000,
	RequireAllTerms:   true,
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: 10 answers, heap of 20, λ=0.2 with edge log scaling.
func DefaultOptions() *Options {
	d := defaultOpts
	return &d
}

// withDefaultsInto writes the defaults-applied copy of o into dst (the
// query arena's resident options block) and returns dst.
func (o *Options) withDefaultsInto(dst *Options) *Options {
	if o == nil {
		*dst = defaultOpts
		return dst
	}
	*dst = *o
	if dst.TopK <= 0 {
		dst.TopK = defaultOpts.TopK
	}
	if dst.HeapSize <= 0 {
		dst.HeapSize = defaultOpts.HeapSize
	}
	if dst.Budget.MaxPops <= 0 {
		dst.Budget.MaxPops = defaultOpts.Budget.MaxPops
	}
	if dst.MaxCombosPerVisit <= 0 {
		dst.MaxCombosPerVisit = defaultOpts.MaxCombosPerVisit
	}
	return dst
}

// Stats reports what one search did; useful for the evaluation harness and
// for diagnosing truncation.
type Stats struct {
	Terms             []string // active terms after normalization/dropping
	MatchedNodes      []int    // |S_i| per active term
	Pops              int      // iterator pops
	Generated         int      // candidate trees generated (pre-dedup)
	Duplicates        int      // trees dropped as duplicates modulo direction
	SingleChildRoots  int      // trees discarded by the one-child-root rule
	ExcludedRoots     int      // trees discarded by root-table exclusion
	MetadataTruncated bool     // a metadata match hit MetadataNodeLimit
	CombosTruncated   bool     // a cross product hit MaxCombosPerVisit
	TermsDropped      int      // unmatched terms dropped (RequireAllTerms=false)
	ArcsScanned       int      // reverse arcs relaxed during expansion
	BytesFaulted      int64    // store bytes faulted during the query (fault meter attached)
	BudgetExhausted   bool     // the query was truncated by its cost budget
	BudgetReason      string   // which axis cut it off: "pops", "arcs" or "bytes"
	Retired           int      // iterators retired because no answer could use them (backward.go)
}

// Searcher answers keyword queries over a graph + keyword index pair —
// any graph.View/index.View implementations (built, store-backed lazy, or
// base+delta overlay). It is safe for concurrent use: each Search call
// checks a searchArena — the per-query scratch state — out of the
// process-wide arena pool, so concurrent queries never share mutable
// state while steady-state searches allocate almost nothing. The pool is
// shared by every Searcher, not owned by one: a Searcher is cheap to
// build per snapshot, and the first query on a new one (after an Apply
// or a Compact, or on another cluster partition) runs on a warm
// arena, widened only if its view has more nodes than the arena covers.
type Searcher struct {
	g     graph.View
	ix    index.View
	cache *index.MatchCache // optional; nil disables match-set caching
	fault func() int64      // optional; cumulative store bytes faulted
	// epoch is the snapshot epoch this Searcher's g/ix pair belongs to,
	// threaded through every cache lookup so a cache carried over from a
	// previous snapshot is consulted safely.
	epoch uint64
	// noRetire turns off iterator retirement (backward.go), restoring the
	// paper's run-to-exhaustion loop. Only tests set it, as the reference
	// the retirement rule is checked against.
	noRetire bool
}

// NewSearcher returns a Searcher over g and ix (built from the same
// database snapshot).
func NewSearcher(g graph.View, ix index.View) *Searcher {
	return &Searcher{g: g, ix: ix}
}

// Graph returns the underlying data graph view.
func (s *Searcher) Graph() graph.View { return s.g }

// Index returns the underlying keyword index view.
func (s *Searcher) Index() index.View { return s.ix }

// WithMatchCache attaches a keyword match-set cache consulted before the
// index on every term lookup (exact and prefix). The cache must belong to
// the same immutable graph/index snapshot as the Searcher; attach it
// before the Searcher is shared between goroutines (the cache itself is
// safe for concurrent use). Returns s for chaining.
func (s *Searcher) WithMatchCache(c *index.MatchCache) *Searcher {
	s.cache = c
	return s
}

// MatchCache returns the attached match-set cache, or nil when caching is
// disabled.
func (s *Searcher) MatchCache() *index.MatchCache { return s.cache }

// WithSnapshotEpoch stamps the Searcher with the snapshot epoch of its
// graph/index pair. The epoch keys every match-cache lookup, so a cache
// carried over from a previous snapshot serves this
// Searcher only entries valid for its epoch (and entries this Searcher
// resolves are rejected once the cache moves past it). Attach before the
// Searcher is shared. Returns s for chaining.
func (s *Searcher) WithSnapshotEpoch(epoch uint64) *Searcher {
	s.epoch = epoch
	return s
}

// WithFaultMeter attaches a cumulative byte counter of store faults
// (typically store.Store.FaultedBytes). The executor samples it at query
// start and end to report Stats.BytesFaulted and to enforce
// Budget.MaxBytesFaulted. fn must be safe for concurrent use. Attach
// before the Searcher is shared. Returns s for chaining.
func (s *Searcher) WithFaultMeter(fn func() int64) *Searcher {
	s.fault = fn
	return s
}

// Request describes one keyword query for Searcher.Query and
// Session.Query.
type Request struct {
	// Terms are the (already split) query terms. Terms are trimmed and
	// lowercased; empty terms are dropped.
	Terms []string
	// Qualified enables the §7 "relation:keyword" / "attribute:keyword"
	// term forms: a term containing a colon is split into qualifier and
	// keyword and restricted accordingly.
	Qualified bool
	// Prefix enables approximate matching (§7): an unqualified term that
	// matches no indexed token exactly falls back to prefix matching.
	Prefix bool
	// DB is the database the graph was built from; it is required only to
	// resolve attribute qualifiers (Qualified terms naming a column).
	DB *sqldb.Database
}

// excludedTables resolves ExcludedRootTables to a table-id set, reusing
// the arena's map (cleared, buckets retained) so repeat queries with
// exclusions do not allocate.
func (s *Searcher) excludedTables(ar *searchArena, o *Options) map[int32]bool {
	if len(o.ExcludedRootTables) == 0 {
		return nil
	}
	excluded := ar.excludedBuf
	if excluded == nil {
		excluded = make(map[int32]bool, len(o.ExcludedRootTables))
		ar.excludedBuf = excluded
	} else {
		clear(excluded)
	}
	for _, name := range o.ExcludedRootTables {
		if id := s.g.TableID(name); id >= 0 {
			excluded[id] = true
		}
	}
	return excluded
}

// matchTerm resolves one term to its node set through the match cache,
// expanding metadata matches to whole tables subject to
// MetadataNodeLimit. The limit budgets actually admitted metadata nodes,
// so duplicate index postings and data/metadata overlap cannot inflate it.
// The set is accumulated onto dst (typically one of the arena's reusable
// per-term buffers) and the extended slice returned.
func (s *Searcher) matchTerm(ar *searchArena, term string, o *Options, stats *Stats, dst []graph.NodeID) []graph.NodeID {
	m := s.cache.Lookup(s.ix, s.epoch, term)
	gen := ar.bumpMark()
	set := dst[:0]
	for _, n := range m.Nodes {
		if ar.mark[n] != gen {
			ar.mark[n] = gen
			set = append(set, n)
		}
	}
	f := &ar.matchBuf
	f.gen = gen
	f.limit = o.MetadataNodeLimit
	f.metaAdmitted = 0
	f.set = set
	visit := ar.matchVisitor()
	for _, tid := range m.Tables {
		f.truncated = false
		s.g.EachTableNode(tid, visit)
		if f.truncated {
			stats.MetadataTruncated = true
			break
		}
	}
	set, f.set = f.set, nil
	return set
}
