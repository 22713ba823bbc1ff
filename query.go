package banks

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/index"
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

func statsFromCore(st *core.Stats) Stats {
	if st == nil {
		return Stats{}
	}
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
// context's error. A Refresh concurrent with Query is safe — the query
// finishes against the snapshot it started on.
func (s *System) Query(ctx context.Context, q Query) (*Results, error) {
	return s.run(ctx, q, nil)
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
	return s.run(ctx, q, fn)
}

// run is the shared driver behind Query and QueryStream: it pins the
// engine snapshot once, resolves the request, runs the context-aware core
// search, and materializes answers against the pinned snapshot.
func (s *System) run(ctx context.Context, q Query, fn func(*Answer) bool) (*Results, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	eng := s.engine()
	// Pin the byte source of a store-backed snapshot for the whole query:
	// Close unmaps the file only after every holder drains, so a search
	// can never fault on memory yanked out from under it.
	if eng.st != nil {
		if !eng.st.Acquire() {
			return nil, ErrClosed
		}
		defer eng.st.Release()
	}

	var terms []string
	if q.Qualified {
		terms = strings.Fields(q.Text)
	} else {
		terms = index.Tokenize(q.Text)
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("banks: empty query")
	}

	req := core.Request{
		Terms:     terms,
		Qualified: q.Qualified,
		Prefix:    q.Prefix,
		DB:        s.db.inner,
	}
	copts := q.Options.toCore()

	// Convert each answer exactly once, at emission time, against the
	// pinned engine; byCore lets the final list and grouping reuse the
	// same conversions.
	byCore := make(map[*core.Answer]*Answer)
	stopped := false
	cb := func(a *core.Answer) bool {
		wire := cluster.AnswerToWire(eng.g, a)
		pa := answerFromRefs(s.db.inner, &wire)
		byCore[a] = pa
		if fn != nil && !fn(pa) {
			stopped = true
			return false
		}
		return true
	}

	answers, st, err := eng.searcher.Query(ctx, req, copts, cb)
	if err != nil {
		return nil, err
	}
	if serr := eng.storeErr(); serr != nil {
		return nil, serr
	}

	// The core trims heap-overflow overshoot (a visit can emit an answer
	// or two beyond TopK) after emission, so the returned list — not the
	// raw emission stream pub — is the ranked result set. Every returned
	// answer was emitted, so byCore covers it.
	var final []*Answer
	for _, a := range answers {
		final = append(final, byCore[a])
	}

	res := &Results{Answers: final, Stats: statsFromCore(st)}
	if q.GroupByShape {
		for _, g := range core.GroupAnswers(eng.g, answers) {
			grp := AnswerGroup{Shape: g.Shape}
			for _, a := range g.Answers {
				grp.Answers = append(grp.Answers, byCore[a])
			}
			res.Groups = append(res.Groups, grp)
		}
	}
	if stopped {
		return res, ErrStopped
	}
	return res, nil
}
