package core

import (
	"context"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// This file implements the extensions Section 7 of the paper plans:
//
//   - attribute-qualified terms such as "author:levy", restricting a
//     keyword to tuples of a named relation or to a named attribute;
//   - approximate (prefix) keyword matching;
//   - answer summarization: grouping results that share the same tree
//     structure over the schema.

// parseQualifiedTerm splits "qual:term" into its parts; ok is false for
// plain terms.
func parseQualifiedTerm(term string) (qual, bare string, ok bool) {
	i := strings.IndexByte(term, ':')
	if i <= 0 || i == len(term)-1 {
		return "", term, false
	}
	return term[:i], term[i+1:], true
}

// matchQualified resolves a "qual:term" search term: the qualifier must
// name a relation (all matching tuples of that relation) or an attribute
// (tuples whose that attribute contains the term). It falls back to nil
// when the qualifier names nothing.
func (s *Searcher) matchQualified(ar *searchArena, db *sqldb.Database, qual, term string, o *Options, stats *Stats) []graph.NodeID {
	candidates := s.matchTerm(ar, term, o, stats, nil)
	if len(candidates) == 0 {
		return nil
	}
	// Relation qualifier: keep matches from that table.
	if tid := s.g.TableID(qual); tid >= 0 {
		var out []graph.NodeID
		for _, n := range candidates {
			if s.g.TableOf(n) == tid {
				out = append(out, n)
			}
		}
		return out
	}
	if db == nil {
		return nil
	}
	// Attribute qualifier: keep matches whose named column contains the
	// term (checked against the stored value, so "author:levy" works per
	// the §7 example). Row reads take the database read lock — concurrent
	// writers append under the write lock.
	db.RLock()
	defer db.RUnlock()
	var out []graph.NodeID
	for _, n := range candidates {
		tbl := db.Table(s.g.TableNameOf(n))
		if tbl == nil {
			continue
		}
		ci := tbl.ColumnIndex(qual)
		if ci < 0 {
			continue
		}
		row := tbl.Row(s.g.RIDOf(n))
		if row == nil || row[ci].IsNull() {
			continue
		}
		for _, tok := range index.Tokenize(row[ci].String()) {
			if tok == term {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// SearchQualified is Search with support for attribute-qualified terms
// ("author:levy") and, when prefix is true, approximate prefix matching
// of unqualified terms. db is needed to check attribute qualifiers; pass
// the database the graph was built from.
func (s *Searcher) SearchQualified(db *sqldb.Database, terms []string, prefix bool, opts *Options) ([]*Answer, error) {
	answers, _, err := s.Query(context.Background(),
		Request{Terms: terms, Qualified: true, Prefix: prefix, DB: db}, opts, nil)
	return answers, err
}

// AnswerGroup is a set of answers sharing the same tree structure over the
// schema — the §7 "summarize the output" extension. Shape is a canonical
// rendering of the structure (table names along the tree).
type AnswerGroup struct {
	Shape   string
	Answers []*Answer
}

// GroupAnswers partitions answers by structural shape, preserving rank
// order within and across groups (groups ordered by their best-ranked
// member). Users can then "look for further answers with a particular tree
// structure".
func GroupAnswers(g graph.View, answers []*Answer) []AnswerGroup {
	byShape := make(map[string]*AnswerGroup)
	var order []string
	for _, a := range answers {
		shape := answerShape(g, a)
		grp, ok := byShape[shape]
		if !ok {
			grp = &AnswerGroup{Shape: shape}
			byShape[shape] = grp
			order = append(order, shape)
		}
		grp.Answers = append(grp.Answers, a)
	}
	out := make([]AnswerGroup, 0, len(order))
	for _, shape := range order {
		out = append(out, *byShape[shape])
	}
	return out
}

// answerShape renders the canonical structure of an answer: the root's
// table and, recursively, the sorted shapes of its subtrees.
func answerShape(g graph.View, a *Answer) string {
	children := make(map[graph.NodeID][]TreeEdge)
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e)
	}
	var shape func(n graph.NodeID) string
	shape = func(n graph.NodeID) string {
		kids := children[n]
		if len(kids) == 0 {
			return g.TableNameOf(n)
		}
		parts := make([]string, len(kids))
		for i, e := range kids {
			parts[i] = shape(e.To)
		}
		sort.Strings(parts)
		return g.TableNameOf(n) + "(" + strings.Join(parts, ",") + ")"
	}
	return shape(a.Root)
}
