package banks

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// ErrStopped is returned by QueryStream (and QueryIter internally) when
// the callback cancels the search.
var ErrStopped = errors.New("banks: search stopped by caller")

// Query describes one keyword search. The zero value of every field but
// Text is a sensible default, so the minimal request is
// Query{Text: "sunita soumen"}. One request type covers everything the
// four pre-Query entry points did: plain search, qualified and prefix
// matching (§7), and grouping by tree shape (§7 summarization).
type Query struct {
	// Text is the keyword query. Without Qualified it is tokenized on
	// non-alphanumeric boundaries ("sunita, soumen" equals "sunita
	// soumen"); with Qualified it is split on whitespace so terms of the
	// form "relation:keyword" or "attribute:keyword" survive intact.
	Text string
	// Qualified enables the paper's planned "author:Levy" term form: a
	// term containing a colon restricts its keyword to a named relation
	// or attribute.
	Qualified bool
	// Prefix enables approximate matching: a term (an unqualified one,
	// when Qualified is set) that matches no indexed token exactly falls
	// back to prefix matching.
	Prefix bool
	// GroupByShape additionally populates Results.Groups, partitioning
	// the answers by their tree structure over the schema.
	GroupByShape bool
	// Options tunes ranking and limits; nil uses the paper's defaults.
	Options *SearchOptions
}

// AnswerGroup is a set of answers sharing one tree structure over the
// schema, e.g. "Paper(Writes(Author),Writes(Author))" — the §7 "summarize
// the output" extension, populated by Query when GroupByShape is set.
type AnswerGroup struct {
	Shape   string
	Answers []*Answer
}

// Stats reports what one search did — the per-query execution statistics
// the core computes (iterator pops, candidate trees generated, truncation
// flags), useful for diagnosing slow or truncated queries.
type Stats struct {
	// Terms are the active terms after normalization and dropping.
	Terms []string
	// MatchedNodes is |S_i| per active term.
	MatchedNodes []int
	// Pops counts shortest-path iterator pops.
	Pops int
	// Generated counts candidate trees generated (pre-dedup).
	Generated int
	// Duplicates counts trees dropped as duplicates modulo direction.
	Duplicates int
	// SingleChildRoots counts trees discarded by the one-child-root rule.
	SingleChildRoots int
	// ExcludedRoots counts trees discarded by root-table exclusion.
	ExcludedRoots int
	// MetadataTruncated reports a metadata match hitting MetadataNodeLimit.
	MetadataTruncated bool
	// CombosTruncated reports a cross product hitting MaxCombosPerVisit.
	CombosTruncated bool
	// TermsDropped counts unmatched terms dropped (AllowPartialMatch).
	TermsDropped int
	// ArcsScanned counts graph arcs relaxed during expansion.
	ArcsScanned int
	// BytesFaulted counts disk-store bytes faulted while the query ran
	// (0 for in-memory systems).
	BytesFaulted int64
	// BudgetExhausted reports that the query was truncated by its cost
	// budget; the answers are the partial set emitted before the cutoff.
	BudgetExhausted bool
	// BudgetReason names the exhausted axis: "pops", "arcs" or "bytes".
	BudgetReason string
	// PartitionsTotal is the partition count of the cluster that served
	// the query (0 for single-engine queries).
	PartitionsTotal int
	// PartitionsRouted counts partitions the query scattered to.
	PartitionsRouted int
	// PartitionsPruned counts partitions the term-statistics broker
	// proved could not match, skipped without a scatter leg.
	PartitionsPruned int
	// PartitionLocalBound reports the distributed completeness bound:
	// every returned answer is exact, and every answer whose connection
	// tree lies inside one partition was found, but trees crossing
	// partition boundaries were not searched. Always true for
	// distributed queries over more than one partition.
	PartitionLocalBound bool
}

// statsFromWire converts a search's wire statistics — one engine's or a
// cluster's merge — to the public form.
func statsFromWire(st cluster.Stats) Stats {
	return Stats{
		Terms:             st.Terms,
		MatchedNodes:      st.MatchedNodes,
		Pops:              st.Pops,
		Generated:         st.Generated,
		Duplicates:        st.Duplicates,
		SingleChildRoots:  st.SingleChildRoots,
		ExcludedRoots:     st.ExcludedRoots,
		MetadataTruncated: st.MetadataTruncated,
		CombosTruncated:   st.CombosTruncated,
		TermsDropped:      st.TermsDropped,
		ArcsScanned:       st.ArcsScanned,
		BytesFaulted:      st.BytesFaulted,
		BudgetExhausted:   st.BudgetExhausted,
		BudgetReason:      st.BudgetReason,

		PartitionsTotal:     st.PartitionsTotal,
		PartitionsRouted:    st.PartitionsRouted,
		PartitionsPruned:    st.PartitionsPruned,
		PartitionLocalBound: st.PartitionLocalBound,
	}
}

// Results is the outcome of one Query: the ranked answers, the optional
// shape groups, and the search's execution statistics.
type Results struct {
	// Answers are the connection trees in emission (approximate
	// relevance) order, ranks assigned.
	Answers []*Answer
	// Groups partitions Answers by tree shape; populated only when the
	// query set GroupByShape.
	Groups []AnswerGroup
	// Stats are the per-search execution statistics.
	Stats Stats
}

// Query answers a keyword query against the current engine snapshot. The
// search honours ctx: cancellation or an expired deadline stops the
// backward expansion within a few hundred iterator pops and returns the
// context's error. A Compact concurrent with Query is safe — the query
// finishes against the snapshot it started on.
func (s *System) Query(ctx context.Context, q Query) (*Results, error) {
	return run(ctx, s.db.inner, s.search, q, nil)
}

// QueryStream is Query with incremental delivery: fn sees each answer the
// moment the output heap emits it, letting callers render results while
// the search is still expanding. Returning false from fn cancels the
// search; QueryStream then returns the partial Results along with
// ErrStopped. Context cancellation returns the context's error instead.
func (s *System) QueryStream(ctx context.Context, q Query, fn func(*Answer) bool) (*Results, error) {
	if fn == nil {
		return nil, fmt.Errorf("banks: QueryStream requires a callback")
	}
	return run(ctx, s.db.inner, s.search, q, fn)
}

// backend runs one resolved request and returns its answers as (table,
// rid) trees: System.search on the pinned local engine, Cluster.search by
// scatter-gather. cb, when non-nil, sees each answer as it is emitted and
// may stop the search; only System.QueryStream passes one, since a
// cluster has no answer to emit before its merge. req goes by pointer:
// the front door runs each search on a fresh goroutine, and copies of the
// wide Request in every frame above the core search cost it a stack
// growth per request.
type backend func(ctx context.Context, req *cluster.Request, cb func(*cluster.Answer) bool) (*cluster.Result, error)

// search is System's backend. It pins one engine snapshot — and, for a
// store-backed one, its byte source: Close unmaps the file only after
// every holder drains, so a search never faults on memory yanked out
// from under it — and maps the answers through that pinned graph, so a
// concurrent Compact or Apply cannot tear them.
func (s *System) search(ctx context.Context, req *cluster.Request, cb func(*cluster.Answer) bool) (*cluster.Result, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	eng := s.engine()
	if eng.st != nil {
		if !eng.st.Acquire() {
			return nil, ErrClosed
		}
		defer eng.st.Release()
	}
	return cluster.Search(ctx, eng.searcher, eng.st, s.db.inner, req, cb)
}

// run is the one query path behind System and Cluster: it tokenizes q,
// runs it on search, and materializes the answers, groups and stats
// against db.
func run(ctx context.Context, db *sqldb.Database, search backend, q Query, fn func(*Answer) bool) (*Results, error) {
	var terms []string
	if q.Qualified {
		terms = strings.Fields(q.Text)
	} else {
		terms = index.Tokenize(q.Text)
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("banks: empty query")
	}
	req := cluster.RequestFromOptions(terms, q.Qualified, q.Prefix, q.Options.toCore())

	// A streamed answer is materialized once, when it is emitted. The
	// search trims the output heap's overshoot after emission, so its
	// final list is a prefix of the emitted ones.
	var emitted []*Answer
	var cb func(*cluster.Answer) bool
	stopped := false
	if fn != nil {
		cb = func(w *cluster.Answer) bool {
			a := answerFromRefs(db, w)
			emitted = append(emitted, a)
			if !fn(a) {
				stopped = true
				return false
			}
			return true
		}
	}
	res, err := search(ctx, &req, cb)
	if err != nil {
		return nil, err
	}
	out := &Results{Stats: statsFromWire(res.Stats)}
	if fn != nil {
		out.Answers = emitted[:len(res.Answers)]
	} else {
		for i := range res.Answers {
			out.Answers = append(out.Answers, answerFromRefs(db, &res.Answers[i]))
		}
	}
	if q.GroupByShape {
		out.Groups = groupByShape(res.Answers, out.Answers)
	}
	if stopped {
		return out, ErrStopped
	}
	return out, nil
}

// groupByShape partitions answers by their tree structure over the
// schema, preserving rank order within and across groups (groups ordered
// by their best-ranked member), so users can "look for further answers
// with a particular tree structure". wire[i] is answers[i] by reference.
func groupByShape(wire []cluster.Answer, answers []*Answer) []AnswerGroup {
	var groups []AnswerGroup
	at := make(map[string]int)
	for i := range wire {
		shape := shapeOf(&wire[i])
		g, ok := at[shape]
		if !ok {
			g = len(groups)
			at[shape] = g
			groups = append(groups, AnswerGroup{Shape: shape})
		}
		groups[g].Answers = append(groups[g].Answers, answers[i])
	}
	return groups
}

// shapeOf renders the canonical structure of an answer: the root's table
// and, recursively, the sorted shapes of its subtrees.
func shapeOf(a *cluster.Answer) string {
	children := make(map[cluster.Ref][]cluster.Ref)
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e.To)
	}
	var shape func(r cluster.Ref) string
	shape = func(r cluster.Ref) string {
		kids := children[r]
		if len(kids) == 0 {
			return r.Table
		}
		parts := make([]string, len(kids))
		for i, k := range kids {
			parts[i] = shape(k)
		}
		sort.Strings(parts)
		return r.Table + "(" + strings.Join(parts, ",") + ")"
	}
	return shape(a.Root)
}
