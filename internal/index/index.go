// Package index implements the keyword index of Section 3 of the paper:
// given a search term, it returns the set of nodes S_i relevant to it. A
// node is relevant when the term appears in a textual attribute of the
// tuple, or in metadata — the name of the tuple's relation or one of its
// columns ("all tuples belonging to a relation named AUTHOR would be
// regarded as relevant to the keyword 'author'").
//
// The index has one form, the sorted term dictionary the store persists:
// the paper keeps this index disk-resident, and internal/store serves it
// back lazily (OpenLazy) with the same answers as the built index.
package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/par"
	"github.com/banksdb/banks/internal/sqldb"
)

// Tokenize splits s into lower-cased tokens at non-alphanumeric boundaries.
// Numbers are kept as tokens (so "vldb 1998" matches a year column rendered
// as text). It collects what tokenScanner yields; a token that lowering
// leaves unchanged is returned as a substring of s, without a copy.
func Tokenize(s string) []string {
	var out []string
	var buf [64]byte
	sc := tokenScanner{s: s}
	for tok, ok := sc.next(buf[:0]); ok; tok, ok = sc.next(tok) {
		if raw := s[sc.start:sc.end]; string(tok) == raw {
			out = append(out, raw)
		} else {
			out = append(out, string(tok))
		}
	}
	return out
}

// tokenScanner walks the tokens of s, each maximal run of letters and
// digits, one at a time. The caller owns the buffer a token is lowered
// into and hands it back on the next call, so a scan allocates only when
// a token outgrows every earlier one. ASCII bytes are classified and
// lowered without decoding; other runes go through unicode, rune by rune,
// as strings.ToLower lowers them.
type tokenScanner struct {
	s          string
	start, end int // the last token is s[start:end]
}

// next lower-cases the next token of s into dst[:0] and returns it; ok is
// false at the end of s.
func (sc *tokenScanner) next(dst []byte) (tok []byte, ok bool) {
	s, i := sc.s, sc.end
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if isAlnumASCII(c) {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			break
		}
		i += size
	}
	sc.start, tok = i, dst[:0]
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !isAlnumASCII(c) {
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			tok = append(tok, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		tok = utf8.AppendRune(tok, unicode.ToLower(r))
		i += size
	}
	sc.end = i
	return tok, i > sc.start
}

func isAlnumASCII(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
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

// Index is the inverted keyword index over a data graph: a sorted term
// dictionary and the LazySource that serves each term's posting list. A
// built index (Build, Materialize) keeps its postings resident; a
// store-opened one (OpenLazy) fetches each list from the store on first
// lookup.
type Index struct {
	nodes    int
	src      LazySource
	dictOnce sync.Once
	dict     *LazyDict
	mu       sync.Mutex
	err      error // the first load failure, sticky
}

// BuildOptions tune index construction.
type BuildOptions struct {
	// Shards caps how many concurrent workers tokenize the database. 0
	// uses runtime.GOMAXPROCS(0); 1 forces a serial build. Every shard
	// count produces byte-identical indexes: shards cover contiguous RID
	// ranges in (table, range) order, so laying their hits out in plan
	// order yields the same sorted posting lists a serial build does.
	Shards int
}

// Build indexes every text attribute of every live row of db, mapping
// matches to nodes of g. g must have been built from the same database
// snapshot. The build is sharded over GOMAXPROCS workers; use
// BuildWithOptions to control the shard count.
func Build(db *sqldb.Database, g *graph.Graph) (*Index, error) {
	return BuildWithOptions(db, g, nil)
}

// BuildWithOptions is Build with explicit construction options.
func BuildWithOptions(db *sqldb.Database, g *graph.Graph, opts *BuildOptions) (*Index, error) {
	shards := 0
	if opts != nil {
		shards = opts.Shards
	}
	db.RLock()
	defer db.RUnlock()
	return build(db, g, par.Workers(shards))
}

// BuildEngine builds the data graph and its keyword index from one
// snapshot of db, under one read lock: graph.Number, then the graph's
// arc step (Numbering.Link) with the index's token scan and merge
// running beside it. opts.Shards is the budget of the whole build (see
// graph.BuildOptions). Graph and index are byte-identical to those
// graph.Build and BuildWithOptions make.
func BuildEngine(db *sqldb.Database, opts *graph.BuildOptions) (*graph.Graph, *Index, error) {
	db.RLock()
	defer db.RUnlock()
	nb, err := graph.Number(db, opts)
	if err != nil {
		return nil, nil, err
	}
	var ix *Index
	g := nb.Link(func(workers int) { ix, err = build(db, nb, workers) })
	if err != nil {
		return nil, nil, err
	}
	return g, ix, nil
}

// numbering is what the token scan needs of a graph: its node count,
// its table ids and each table's rid -> node map. A built graph.Graph
// has them, and so does a graph.Numbering whose arc step is still running.
type numbering interface {
	NumNodes() int
	TableID(name string) int32
	TableNodes(t int32) []graph.NodeID
}

// indexShard is one contiguous RID range of one table, tokenized by one
// worker. A token is interned in the shard's own table at its first
// sighting, and hits records every occurrence in scan order. The scan
// allocates no string: token bytes go to the table's arena.
type indexShard struct {
	t        *sqldb.Table
	nodes    []graph.NodeID // the table's rid -> node map
	textCols []int
	lo, hi   sqldb.RID
	toks     tokenTable
	hits     []hit
}

// tokenTable interns tokens: each distinct token's bytes are appended
// once to one arena and get a dense id in first-sighting order. It is
// open-addressed (linear probing) over a hash the caller computes once
// per token and the table keeps, so the build's merge interns a shard's
// tokens build-wide without hashing them again.
type tokenTable struct {
	arena  []byte
	ends   []int32  // id -> end of its bytes in arena; the start is ends[id-1]
	hashes []uint64 // id -> hash
	slots  []int32  // id+1, 0 when empty; the length is a power of two
}

// len returns the number of distinct tokens.
func (tt *tokenTable) len() int { return len(tt.ends) }

// tok returns the bytes of token id.
func (tt *tokenTable) tok(id int32) []byte {
	start := int32(0)
	if id > 0 {
		start = tt.ends[id-1]
	}
	return tt.arena[start:tt.ends[id]]
}

// intern returns the id of tok, whose hash is h, adding it if unseen.
func (tt *tokenTable) intern(tok []byte, h uint64) int32 {
	if 2*len(tt.ends) >= len(tt.slots) {
		tt.grow()
	}
	mask := uint64(len(tt.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := tt.slots[i]
		if s == 0 {
			id := int32(len(tt.ends))
			tt.arena = append(tt.arena, tok...)
			tt.ends = append(tt.ends, int32(len(tt.arena)))
			tt.hashes = append(tt.hashes, h)
			tt.slots[i] = id + 1
			return id
		}
		if id := s - 1; tt.hashes[id] == h && bytes.Equal(tt.tok(id), tok) {
			return id
		}
	}
}

// grow doubles the slot array (from 1 024 slots) and re-places every id
// by its kept hash.
func (tt *tokenTable) grow() {
	n := 2 * len(tt.slots)
	if n == 0 {
		n = 1024
	}
	tt.slots = make([]int32, n)
	mask := uint64(n - 1)
	for id, h := range tt.hashes {
		i := h & mask
		for tt.slots[i] != 0 {
			i = (i + 1) & mask
		}
		tt.slots[i] = int32(id) + 1
	}
}

// sorted returns the token ids in byte order of their tokens. An LSD
// radix sort orders them by their first eight bytes, read as one
// big-endian integer (zero-padded, which keeps byte order); only ids whose
// keys tie compare whole tokens.
func (tt *tokenTable) sorted() []int32 {
	n := tt.len()
	keys, ids := make([]uint64, n), make([]int32, n)
	for id := range ids {
		var k [8]byte
		copy(k[:], tt.tok(int32(id)))
		keys[id], ids[id] = binary.BigEndian.Uint64(k[:]), int32(id)
	}
	if n < 2 {
		return ids
	}
	keys2, ids2 := make([]uint64, n), make([]int32, n)
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		if at[byte(keys[0]>>shift)] == n {
			continue // every key has this byte: the pass would move nothing
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for i, k := range keys {
			b := byte(k >> shift)
			keys2[at[b]], ids2[at[b]] = k, ids[i]
			at[b]++
		}
		keys, keys2, ids, ids2 = keys2, keys, ids2, ids
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ids[i:j], func(a, b int32) int { return bytes.Compare(tt.tok(a), tt.tok(b)) })
		}
		i = j
	}
	return ids
}

// hit is one occurrence of token id (shard-local, then build-wide after
// the merge renumbers it) in node n.
type hit struct {
	id int32
	n  graph.NodeID
}

// indexShardSize is the minimum row-range per shard (tokenizing is cheap
// per row, so shards smaller than this are dominated by overhead).
const indexShardSize = 512

// hitSample is how many live rows of a shard's range are tokenized
// before its hits are presized by extrapolation.
const hitSample = 256

// build indexes db over the node numbering g on up to shards workers.
// The caller holds db's read lock.
func build(db *sqldb.Database, g numbering, shards int) (*Index, error) {
	meta := make(map[string][]int32)

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
			meta[tok] = appendUniqueTable(meta[tok], tid)
		}
		textCols := make([]int, 0, len(t.Schema().Columns))
		for i, c := range t.Schema().Columns {
			for _, tok := range Tokenize(c.Name) {
				meta[tok] = appendUniqueTable(meta[tok], tid)
			}
			if c.Type == sqldb.TypeText {
				textCols = append(textCols, i)
			}
		}
		if len(textCols) == 0 {
			continue
		}
		nodes := g.TableNodes(tid)
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
				t: t, nodes: nodes, textCols: textCols,
				lo: sqldb.RID(lo), hi: sqldb.RID(hi),
			})
		}
	}

	// Parallel scan: each shard tokenizes its row range into private hits,
	// in RID order. Every table hashes with one seed, so the merge can
	// reuse a shard's hashes.
	seed := maphash.MakeSeed()
	par.Run(len(plan), shards, func(i int) {
		sh := &plan[i]
		var buf []byte
		scanned := 0
		sh.t.ScanRange(sh.lo, sh.hi, func(rid sqldb.RID, row []sqldb.Value) bool {
			if int(rid) >= len(sh.nodes) || sh.nodes[rid] == graph.NoNode {
				return true
			}
			if scanned++; scanned == hitSample {
				// Presize hits for the whole range, extrapolated (with
				// an eighth to spare) from its first rows.
				want := len(sh.hits) * int(sh.hi-sh.lo) / hitSample * 9 / 8
				sh.hits = slices.Grow(sh.hits, want-len(sh.hits))
			}
			n := sh.nodes[rid]
			for _, ci := range sh.textCols {
				v := row[ci]
				if v.IsNull() {
					continue
				}
				sc := tokenScanner{s: v.S}
				for t, ok := sc.next(buf); ok; t, ok = sc.next(t) {
					buf = t
					id := sh.toks.intern(t, maphash.Bytes(seed, t))
					sh.hits = append(sh.hits, hit{id: id, n: n})
				}
			}
			return true
		})
	})

	// Merge (serial): number the tokens build-wide, then counting-sort
	// every hit by token into one posting array. Shards are visited in
	// plan order (tables in creation order, ranges in ascending RID order)
	// and each shard's hits in scan order, so a token's postings arrive as
	// a serial scan meets them. Node ids follow RID order within a table
	// and tables follow creation order, so each list arrives sorted, and
	// only a node's repeats (a token seen twice in one row) are dropped.
	// The result is identical for every shard count.
	var all tokenTable
	var gids []int32
	off := []int32{0} // off[t+1] counts token t's hits, then is summed
	for i := range plan {
		sh := &plan[i]
		gids = slices.Grow(gids[:0], sh.toks.len())[:sh.toks.len()]
		for id := range gids {
			t := all.intern(sh.toks.tok(int32(id)), sh.toks.hashes[id])
			if int(t) == len(off)-1 {
				off = append(off, 0)
			}
			gids[id] = t
		}
		for j, h := range sh.hits {
			sh.hits[j].id = gids[h.id]
			off[gids[h.id]+1]++
		}
	}
	nt := all.len()
	for t := 0; t < nt; t++ {
		off[t+1] += off[t]
	}
	posts := make([]graph.NodeID, off[nt])
	next := slices.Clone(off)
	for i := range plan {
		for _, h := range plan[i].hits {
			posts[next[h.id]] = h.n
			next[h.id]++
		}
	}
	order := all.sorted()
	// Every token is cut from one string of all the tokens' bytes.
	keys := string(all.arena)
	toks := make([]string, nt)
	lists := make([][]graph.NodeID, nt)
	for i, t := range order {
		start := int32(0)
		if t > 0 {
			start = all.ends[t-1]
		}
		toks[i] = keys[start:all.ends[t]]
		lists[i] = slices.Compact(posts[off[t]:off[t+1]])
	}
	return newIndex(g.NumNodes(), toks, lists, meta), nil
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
// token match, as in the paper's prototype): a binary search of the sorted
// dictionary, then one posting list.
func (ix *Index) Lookup(term string) Match {
	tok := strings.ToLower(strings.TrimSpace(term))
	d := ix.ensureDict()
	m := Match{Tables: d.Meta[tok]}
	if i, ok := slices.BinarySearch(d.Toks, tok); ok {
		m.Nodes = ix.postings(i, tok, nil)
	}
	return m
}

// LookupPrefix returns nodes for all indexed tokens with the given prefix;
// it backs the approximate-match extension mentioned in the paper's future
// work. The sorted dictionary makes the prefix range contiguous, so only
// the matching terms' postings are read. The result is sorted and
// deduplicated; callers must not mutate it.
func (ix *Index) LookupPrefix(prefix string) []graph.NodeID {
	prefix = strings.ToLower(strings.TrimSpace(prefix))
	if prefix == "" {
		return nil
	}
	d := ix.ensureDict()
	lo, hi := prefixRange(d.Toks, prefix)
	var out []graph.NodeID
	for i := lo; i < hi; i++ {
		out = ix.postings(i, d.Toks[i], out)
	}
	if hi-lo > 1 {
		// Past the first term out is this call's own copy: no list is
		// empty, and an append onto a source's slice copies it.
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// NumTerms returns the number of distinct indexed tokens.
func (ix *Index) NumTerms() int { return len(ix.ensureDict().Toks) }

// NumPostings returns the total posting count.
func (ix *Index) NumPostings() int { return ix.ensureDict().Posts }

// NumNodes returns the node count of the graph the index was built for.
func (ix *Index) NumNodes() int { return ix.nodes }

// ForEachTermSorted visits every indexed token in ascending order with
// its posting list — the order of the store's postings segment — and
// returns the first fetch error. Visited slices must not be mutated and
// are only valid for the duration of the callback (a store-opened index
// decodes every term into one reused buffer).
func (ix *Index) ForEachTermSorted(fn func(tok string, ns []graph.NodeID)) error {
	d := ix.ensureDict()
	if err := ix.LazyErr(); err != nil {
		return err
	}
	var buf []graph.NodeID
	for i, tok := range d.Toks {
		ns, err := ix.src.PostingsAppend(i, tok, buf[:0])
		if err != nil {
			return fmt.Errorf("index: loading postings for %q: %w", tok, err)
		}
		buf = ns
		fn(tok, ns)
	}
	return nil
}

// MetaTables returns the metadata (relation/column name token -> table
// ids) map. The map and its slices are shared — callers must not mutate
// them.
func (ix *Index) MetaTables() map[string][]int32 { return ix.ensureDict().Meta }
