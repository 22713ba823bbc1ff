// Package index implements the keyword index of Section 3 of the paper:
// given a search term, it returns the set of nodes S_i relevant to it. A
// node is relevant when the term appears in a textual attribute of the
// tuple, or in metadata — the name of the tuple's relation or one of its
// columns ("all tuples belonging to a relation named AUTHOR would be
// regarded as relevant to the keyword 'author'").
//
// The paper keeps this index disk-resident; internal/store persists it
// and serves it back lazily (OpenLazy).
package index

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"unicode"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/par"
	"github.com/banksdb/banks/internal/sqldb"
)

// Tokenize splits s into lower-cased tokens at non-alphanumeric boundaries.
// Numbers are kept as tokens (so "vldb 1998" matches a year column rendered
// as text).
func Tokenize(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, strings.ToLower(s[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, strings.ToLower(s[start:]))
	}
	return out
}

// Match is the result of looking up one search term: explicit node matches
// from data tokens, plus table ids whose metadata (relation or column name)
// matched — every node of such a table is relevant to the term.
type Match struct {
	Nodes  []graph.NodeID
	Tables []int32
}

// Empty reports whether the term matched nothing at all.
func (m Match) Empty() bool { return len(m.Nodes) == 0 && len(m.Tables) == 0 }

// Index is the inverted keyword index over a data graph. An Index is
// either eager (Build / NewFromPostings: every posting list
// resident in terms) or lazy (OpenLazy: only the term dictionary resident,
// postings fetched from a LazySource on first lookup); both serve the same
// read interface with identical results.
type Index struct {
	terms map[string][]graph.NodeID
	meta  map[string][]int32
	nodes int
	posts int
	lazy  *lazyIndex // non-nil for store-opened indexes
}

// BuildOptions tune index construction.
type BuildOptions struct {
	// Shards caps how many concurrent workers tokenize the database. 0
	// uses runtime.GOMAXPROCS(0); 1 forces a serial build. Every shard
	// count produces byte-identical indexes: shards cover contiguous RID
	// ranges in (table, range) order, so concatenating their postings in
	// plan order yields the same sorted posting lists a serial build does.
	Shards int
}

// Build indexes every text attribute of every live row of db, mapping
// matches to nodes of g. g must have been built from the same database
// snapshot. The build is sharded over GOMAXPROCS workers; use
// BuildWithOptions to control the shard count.
func Build(db *sqldb.Database, g *graph.Graph) (*Index, error) {
	return BuildWithOptions(db, g, nil)
}

// indexShard is one contiguous RID range of one table, tokenized by one
// worker into a private posting map.
type indexShard struct {
	table    string
	t        *sqldb.Table
	textCols []int
	lo, hi   sqldb.RID
	terms    map[string][]graph.NodeID
}

// indexShardSize is the minimum row-range per shard (tokenizing is cheap
// per row, so shards smaller than this are dominated by overhead).
const indexShardSize = 512

// BuildWithOptions is Build with explicit construction options.
func BuildWithOptions(db *sqldb.Database, g *graph.Graph, opts *BuildOptions) (*Index, error) {
	shards := 0
	if opts != nil {
		shards = opts.Shards
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	ix := &Index{
		terms: make(map[string][]graph.NodeID),
		meta:  make(map[string][]int32),
		nodes: g.NumNodes(),
	}
	db.RLock()
	defer db.RUnlock()

	// Serial prologue: metadata tokens (relation and column names) and the
	// shard plan. Error paths all live here, so the parallel scan below
	// cannot fail.
	var plan []indexShard
	for _, name := range db.TableNames() {
		t := db.Table(name)
		if t == nil {
			return nil, fmt.Errorf("index: table %s disappeared during build", name)
		}
		tid := g.TableID(name)
		if tid < 0 {
			return nil, fmt.Errorf("index: table %s not in graph", name)
		}
		for _, tok := range Tokenize(name) {
			ix.meta[tok] = appendUniqueTable(ix.meta[tok], tid)
		}
		textCols := make([]int, 0, len(t.Schema().Columns))
		for i, c := range t.Schema().Columns {
			for _, tok := range Tokenize(c.Name) {
				ix.meta[tok] = appendUniqueTable(ix.meta[tok], tid)
			}
			if c.Type == sqldb.TypeText {
				textCols = append(textCols, i)
			}
		}
		if len(textCols) == 0 {
			continue
		}
		capRows := t.Cap()
		chunk := (capRows + shards - 1) / shards
		if chunk < indexShardSize {
			chunk = indexShardSize
		}
		for lo := 0; lo < capRows; lo += chunk {
			hi := lo + chunk
			if hi > capRows {
				hi = capRows
			}
			plan = append(plan, indexShard{
				table: name, t: t, textCols: textCols,
				lo: sqldb.RID(lo), hi: sqldb.RID(hi),
			})
		}
	}

	// Parallel scan: each shard tokenizes its row range into a private
	// map. Within a shard postings are appended in RID order, so they are
	// sorted by node id (node ids are assigned in RID order per table).
	par.Run(len(plan), shards, func(i int) {
		sh := &plan[i]
		sh.terms = make(map[string][]graph.NodeID)
		sh.t.ScanRange(sh.lo, sh.hi, func(rid sqldb.RID, row []sqldb.Value) bool {
			n := g.NodeOf(sh.table, rid)
			if n == graph.NoNode {
				return true
			}
			for _, ci := range sh.textCols {
				v := row[ci]
				if v.IsNull() {
					continue
				}
				for _, tok := range Tokenize(v.S) {
					sh.terms[tok] = append(sh.terms[tok], n)
				}
			}
			return true
		})
	})

	// Merge in plan order: tables appear in creation order and ranges in
	// ascending RID order. When node ids are assigned in RID order per
	// table (the default graph layout) the concatenated postings per term
	// are already globally sorted; a graph built with a renumbering layout
	// pass (BuildOptions.LayoutOrder) breaks that correspondence, so any
	// out-of-order list is sorted before deduplication. Either way the
	// result is canonical — identical for every shard count and layout.
	for i := range plan {
		for tok, ns := range plan[i].terms {
			ix.terms[tok] = append(ix.terms[tok], ns...)
		}
	}
	for tok, ns := range ix.terms {
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
		out := ns[:0]
		for i, n := range ns {
			if i == 0 || n != ns[i-1] {
				out = append(out, n)
			}
		}
		ix.terms[tok] = out
		ix.posts += len(out)
	}
	return ix, nil
}

func appendUniqueTable(s []int32, t int32) []int32 {
	for _, x := range s {
		if x == t {
			return s
		}
	}
	return append(s, t)
}

// Lookup returns the match set for one search term (case-insensitive exact
// token match, as in the paper's prototype).
func (ix *Index) Lookup(term string) Match {
	tok := strings.ToLower(strings.TrimSpace(term))
	if ix.lazy != nil {
		return ix.lazyLookup(tok)
	}
	return Match{Nodes: ix.terms[tok], Tables: ix.meta[tok]}
}

// LookupPrefix returns nodes for all indexed tokens with the given prefix;
// it backs the approximate-match extension mentioned in the paper's future
// work. The result is sorted and deduplicated.
func (ix *Index) LookupPrefix(prefix string) []graph.NodeID {
	prefix = strings.ToLower(strings.TrimSpace(prefix))
	if prefix == "" {
		return nil
	}
	if ix.lazy != nil {
		return ix.lazyLookupPrefix(prefix)
	}
	var out []graph.NodeID
	for tok, ns := range ix.terms {
		if strings.HasPrefix(tok, prefix) {
			out = append(out, ns...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup
}

// NewFromPostings builds an index directly from posting and metadata maps
// for a graph of numNodes nodes — for tests and embedders that synthesize
// match sets without a database. Unlike Build, postings are taken verbatim:
// no sorting or deduplication is applied, so consumers of Lookup (such as
// core.Searcher) must tolerate duplicate node entries.
func NewFromPostings(numNodes int, terms map[string][]graph.NodeID, meta map[string][]int32) *Index {
	ix := &Index{
		terms: make(map[string][]graph.NodeID, len(terms)),
		meta:  make(map[string][]int32, len(meta)),
		nodes: numNodes,
	}
	for tok, ns := range terms {
		ix.terms[strings.ToLower(tok)] = append([]graph.NodeID(nil), ns...)
		ix.posts += len(ns)
	}
	for tok, ts := range meta {
		ix.meta[strings.ToLower(tok)] = append([]int32(nil), ts...)
	}
	return ix
}

// NumTerms returns the number of distinct indexed tokens.
func (ix *Index) NumTerms() int {
	if ix.lazy != nil {
		return len(ix.ensureDict().Toks)
	}
	return len(ix.terms)
}

// NumPostings returns the total posting count.
func (ix *Index) NumPostings() int {
	if ix.lazy != nil {
		return ix.ensureDict().Posts
	}
	return ix.posts
}

// NumNodes returns the node count of the graph the index was built for.
func (ix *Index) NumNodes() int { return ix.nodes }

// ForEachTermSorted visits every indexed token in ascending order with
// its posting list — the order of the store's postings segment. Lazy
// indexes fetch each list through their source and return the first
// fetch error. Visited slices must not be mutated and are only valid for
// the duration of the callback (a lazy sweep decodes every term into one
// reused buffer).
func (ix *Index) ForEachTermSorted(fn func(tok string, ns []graph.NodeID)) error {
	if ix.lazy != nil {
		d := ix.ensureDict()
		if err := ix.LazyErr(); err != nil {
			return err
		}
		// With an append-capable source the whole sweep shares one
		// buffer.
		app, canAppend := ix.lazy.src.(appendSource)
		var buf []graph.NodeID
		for i, tok := range d.Toks {
			var ns []graph.NodeID
			var err error
			if canAppend {
				ns, err = app.PostingsAppend(i, tok, buf[:0])
				buf = ns
			} else {
				ns, err = ix.lazy.src.Postings(i, tok)
			}
			if err != nil {
				return fmt.Errorf("index: loading postings for %q: %w", tok, err)
			}
			fn(tok, ns)
		}
		return nil
	}
	toks := make([]string, 0, len(ix.terms))
	for tok := range ix.terms {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		fn(tok, ix.terms[tok])
	}
	return nil
}

// MetaTables returns the metadata (relation/column name token -> table
// ids) map, loading the dictionary for lazy indexes. The map and its
// slices are shared — callers must not mutate them.
func (ix *Index) MetaTables() map[string][]int32 {
	if ix.lazy != nil {
		return ix.ensureDict().Meta
	}
	return ix.meta
}
