package core

import (
	"strings"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// This file implements the matching side of the extensions Section 7 of
// the paper plans: attribute-qualified terms such as "author:levy",
// restricting a keyword to tuples of a named relation or to a named
// attribute. Prefix fallback lives in the executor; grouping answers by
// tree shape works on wire answers, outside the core.

// ParseQualifiedTerm splits "qual:term" into its parts; ok is false for
// plain terms.
func ParseQualifiedTerm(term string) (qual, bare string, ok bool) {
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
