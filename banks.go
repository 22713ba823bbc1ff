// Package banks is a Go implementation of BANKS — Browsing ANd Keyword
// Searching in relational databases — after Bhalotia, Hulgeri, Nakhe,
// Chakrabarti and Sudarshan, "Keyword Searching and Browsing in Databases
// using BANKS" (ICDE 2002).
//
// BANKS lets users query a relational database with plain keywords, no
// schema knowledge or SQL required. Tuples become nodes of a directed
// graph whose edges follow foreign-key links (with indegree-scaled
// backward edges so hub tuples do not collapse proximity); an answer is a
// connection tree — a rooted directed tree containing a path from an
// information node to a tuple matching each keyword — ranked by a
// combination of proximity and prestige.
//
// Quick start:
//
//	db := banks.NewDatabase()
//	db.MustExec(`CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT)`)
//	db.MustExec(`CREATE TABLE paper (id TEXT PRIMARY KEY, title TEXT)`)
//	db.MustExec(`CREATE TABLE writes (aid TEXT REFERENCES author,
//	                                  pid TEXT REFERENCES paper)`)
//	// ... INSERT data ...
//	sys, err := banks.NewSystem(db, nil)
//	res, err := sys.Query(ctx, banks.Query{Text: "sunita soumen"})
//	for _, a := range res.Answers {
//	    fmt.Println(a.Format())
//	}
//
// Query is the single entry point for keyword search: one request type
// covers plain, qualified ("author:levy") and prefix matching, answer
// grouping by tree shape, and per-search statistics, and every query
// honours its context — cancellation or a deadline stops the backward
// expanding search promptly. QueryStream delivers answers incrementally;
// QueryIter does the same as a range-over-func sequence.
//
// A System serves queries from an immutable engine snapshot (graph +
// index + searcher) held behind an atomic pointer. Apply and Compact
// build the next snapshot aside and swap it in atomically, so queries and
// HTTP requests already in flight keep reading the snapshot they started
// on — both are safe to call at any time, under any concurrency.
//
// The package also exposes the browsing subsystem of the paper's Section 4
// via System.ServeHandler, an http.Handler serving hyperlinked table views,
// keyword search, and the four display templates.
package banks

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/sqlexec"
	"github.com/banksdb/banks/internal/store"
	"github.com/banksdb/banks/internal/wal"
	"github.com/banksdb/banks/internal/xmlshred"
)

// Database is an embedded relational database with SQL access and enforced
// primary/foreign keys — the substrate BANKS builds its graph from. It is
// safe for concurrent use.
type Database struct {
	inner  *sqldb.Database
	engine *sqlexec.Engine
	// folding is held shared by Exec, ExecScript and LoadXML, and alone by
	// a System's Apply and Compact while they fold rows into the engine:
	// the fold reads tables without the database lock.
	folding sync.RWMutex
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	d := sqldb.NewDatabase()
	return &Database{inner: d, engine: sqlexec.New(d)}
}

// Row is one result row; values are nil, int64, float64, bool or string.
type Row []interface{}

// Result is the outcome of one SQL statement.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int64
}

// Exec parses and runs one SQL statement. Placeholders (?) bind from args;
// supported argument types are nil, integers, floats, bools, strings and
// time.Time.
func (d *Database) Exec(sql string, args ...interface{}) (*Result, error) {
	d.folding.RLock()
	defer d.folding.RUnlock()
	params := make([]sqldb.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, err
		}
		params[i] = v
	}
	res, err := d.engine.Execute(sql, params...)
	if err != nil {
		return nil, err
	}
	return fromResult(res), nil
}

// MustExec is Exec, panicking on error; intended for examples and tests.
func (d *Database) MustExec(sql string, args ...interface{}) *Result {
	r, err := d.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecScript runs a semicolon-separated SQL script, stopping at the first
// error.
func (d *Database) ExecScript(sql string) error {
	d.folding.RLock()
	defer d.folding.RUnlock()
	_, err := d.engine.ExecuteScript(sql)
	return err
}

// Tables returns the table names in creation order.
func (d *Database) Tables() []string { return d.inner.TableNames() }

// Internal returns the underlying engine database; it is exported for the
// benchmark harness (bench/) and carries no compatibility promise.
func (d *Database) Internal() *sqldb.Database { return d.inner }

// WrapDatabase adopts an already-built engine database (for example one of
// the internal/datagen generators). Like Internal, it exists for cmd/ and
// bench/ and carries no compatibility promise.
func WrapDatabase(inner *sqldb.Database) *Database {
	return &Database{inner: inner, engine: sqlexec.New(inner)}
}

// LoadXML shreds one XML document into the xml_element / xml_attribute
// relations (created on first use), modelling containment as foreign-key
// edges — the paper's Section 7 XML extension. After Compact, keyword
// queries return connection trees through the document structure. It
// returns the number of elements loaded.
func (d *Database) LoadXML(r io.Reader, docName string) (int, error) {
	d.folding.RLock()
	defer d.folding.RUnlock()
	return xmlshred.Load(d.inner, r, docName)
}

func toValue(a interface{}) (sqldb.Value, error) {
	switch v := a.(type) {
	case nil:
		return sqldb.Null(), nil
	case int:
		return sqldb.Int(int64(v)), nil
	case int32:
		return sqldb.Int(int64(v)), nil
	case int64:
		return sqldb.Int(v), nil
	case float32:
		return sqldb.Float(float64(v)), nil
	case float64:
		return sqldb.Float(v), nil
	case bool:
		return sqldb.Bool(v), nil
	case string:
		return sqldb.Text(v), nil
	case time.Time:
		return sqldb.Text(v.UTC().Format(time.RFC3339)), nil
	}
	return sqldb.Null(), fmt.Errorf("banks: unsupported argument type %T", a)
}

func fromValue(v sqldb.Value) interface{} {
	switch v.T {
	case sqldb.TypeNull:
		return nil
	case sqldb.TypeInt:
		return v.I
	case sqldb.TypeFloat:
		return v.F
	case sqldb.TypeBool:
		return v.I != 0
	default:
		return v.S
	}
}

func fromResult(r *sqlexec.Result) *Result {
	out := &Result{Columns: r.Columns, RowsAffected: r.RowsAffected}
	for _, row := range r.Rows {
		conv := make(Row, len(row))
		for i, v := range row {
			conv[i] = fromValue(v)
		}
		out.Rows = append(out.Rows, conv)
	}
	return out
}

// SystemOptions configure graph construction and query-time caching.
type SystemOptions struct {
	// DisableBackEdgeScaling turns off the §2.1 indegree scaling of
	// backward edges (for ablation; the paper's behaviour is on).
	DisableBackEdgeScaling bool
	// PrestigeDamping, when in (0,1), uses PageRank-style prestige
	// transfer instead of raw reference indegree (the extension §2.2
	// mentions). 0 keeps the paper's indegree prestige.
	PrestigeDamping float64
	// MatchCacheBytes bounds the per-snapshot keyword match-set cache
	// consulted before the index on every term lookup. 0 uses
	// DefaultMatchCacheBytes; a negative value disables caching. The
	// cache belongs to the immutable engine snapshot, so a rebuild
	// invalidates it for free by swapping in a fresh one.
	MatchCacheBytes int64
	// StorePath, when set, makes every Compact (and the initial build in
	// NewSystem) persist the engine it builds to this path in the
	// segmented store format before swapping it in —
	// build-aside-then-persist, so the store on disk always matches the
	// serving engine and the next process start can OpenSystem it
	// instantly. A persist failure fails the Compact without swapping.
	StorePath string
	// WALPath, when set, enables live mutations: System.Apply journals
	// row-level changes to a write-ahead log at this path and folds them
	// into delta overlays over the immutable engine, so small changes
	// become visible to queries in milliseconds without a full
	// SQL→graph→index rebuild. Compact folds the accumulated
	// deltas back into concrete structures (and, with StorePath set,
	// truncates the WAL after persisting the compacted engine).
	//
	// On startup the WAL tail is replayed: NewSystem replays every
	// journaled batch into the database before the initial build (the
	// database is expected to hold the rows as of the WAL's start);
	// OpenSystem replays only batches newer than the store's recorded
	// WAL sequence, restoring the pre-crash view without a rebuild.
	//
	// Mutually exclusive with PrestigeDamping: PageRank-style prestige
	// is a global fixpoint and cannot be maintained incrementally.
	WALPath string
}

// DefaultMatchCacheBytes is the match-set cache budget used when
// SystemOptions.MatchCacheBytes is zero.
const DefaultMatchCacheBytes = 4 << 20

// cacheBytes resolves the MatchCacheBytes knob to an effective budget.
func (o SystemOptions) cacheBytes() int64 {
	switch {
	case o.MatchCacheBytes < 0:
		return 0
	case o.MatchCacheBytes == 0:
		return DefaultMatchCacheBytes
	default:
		return o.MatchCacheBytes
	}
}

// engine is one immutable snapshot of the derived search structures: the
// data graph, the keyword index built over it, and the searcher that
// answers queries against the pair. An engine is never mutated after
// construction; Apply and Compact swap a whole new engine in atomically,
// and every query (including tuple materialization at answer-conversion
// time) pins the engine it started on, so in-flight work is never torn
// between two snapshots.
type engine struct {
	g        graph.View
	ix       index.View
	cache    *index.MatchCache // nil when caching is disabled
	searcher *core.Searcher
	st       *store.Store // non-nil when the engine serves from a disk store
	walSeq   uint64       // last WAL sequence folded into this snapshot's views
	// epoch is the cache invalidation epoch this snapshot reads and
	// writes at. Fresh engines start at 0; a publish that carries the
	// previous snapshot's cache bumps it once per batch that changed any
	// term's match set, so readers pinned to older snapshots never see
	// newer entries and stale refills are rejected.
	epoch uint64
}

// concrete returns the engine's graph and index as their concrete types
// when the snapshot is not an overlay (built or store-opened engines);
// overlay snapshots (live mutations pending compaction) return false.
func (e *engine) concrete() (*graph.Graph, *index.Index, bool) {
	g, okG := e.g.(*graph.Graph)
	ix, okI := e.ix.(*index.Index)
	return g, ix, okG && okI
}

// newEngine assembles one immutable snapshot: graph, index, a fresh
// match-set cache scoped to the pair, and the searcher over all of them.
func newEngine(g graph.View, ix index.View, opts SystemOptions) *engine {
	cache := index.NewMatchCache(opts.cacheBytes())
	return &engine{g: g, ix: ix, cache: cache, searcher: core.NewSearcher(g, ix).WithMatchCache(cache)}
}

// newEngineFrom assembles the next snapshot over prev's warm match cache,
// which carries over with only the batch's touched terms invalidated
// (epoch-guarded — see MatchCache.Invalidate). The graph and index views
// must share prev's node numbering (delta overlays append, never
// renumber); a rebuild or a renumbering compaction must use newEngine
// instead.
func newEngineFrom(prev *engine, g graph.View, ix index.View, opts SystemOptions, touched []string) *engine {
	epoch := prev.epoch
	if len(touched) > 0 {
		epoch++
	}
	prev.cache.Invalidate(epoch, touched)
	return &engine{
		g:     g,
		ix:    ix,
		cache: prev.cache,
		epoch: epoch,
		searcher: core.NewSearcher(g, ix).
			WithMatchCache(prev.cache).
			WithSnapshotEpoch(epoch),
	}
}

// System couples a database snapshot with its BANKS graph and keyword
// index and answers keyword queries. Apply folds small row-level changes
// in live (SystemOptions.WALPath); after writes made on the Database
// directly, Compact rebuilds from it. Searches against a stale System still
// work but will not see new tuples. A System is safe for concurrent use,
// including Apply and Compact while queries and Handler requests are in
// flight.
type System struct {
	db    *Database
	eng   atomic.Pointer[engine]
	opts  SystemOptions
	store *store.Store // the store backing OpenSystem, for Close

	// closed is checked lock-free at every query boundary; the fields
	// below it are guarded by mu, which serializes the writers: Apply,
	// Compact and Close.
	closed     atomic.Bool
	mu         sync.Mutex
	closeErr   error        // sticky result of the first Close
	wal        *wal.Log     // non-nil iff opts.WALPath is set
	gd         *graph.Delta // live graph delta over the last compacted base
	id         *index.Delta // live index delta, in step with gd
	appliedSeq uint64       // last WAL sequence folded into the serving engine
	tail       *rowLog      // first-touch log of batches applied while Compact builds aside; nil otherwise
	synced     uint64       // the database's write count as of the serving engine (see mutate.go)

	// compactMu serializes Compacts, so at most one tail log is ever live
	// and no rebuild replaces the base under an aside build. It is always
	// taken before mu and released after; mu itself is dropped during the
	// fold.
	compactMu sync.Mutex
	// compactHook, when non-nil, runs after Compact's lock-free aside
	// build and before the fold+swap. Test-only: it lets tests apply
	// batches deterministically inside the tail window.
	compactHook func()

	// warmPublishes counts snapshot publishes that carried the previous
	// snapshot's match cache.
	warmPublishes atomic.Int64
}

// engine returns the current snapshot. Callers pin it once per operation
// so one logical query never mixes two snapshots.
func (s *System) engine() *engine { return s.eng.Load() }

// NewSystem builds the data graph (§2) and keyword index (§3) for db.
//
// With SystemOptions.WALPath set, any existing WAL at that path is first
// replayed into db (the database is expected to hold the rows as of the
// WAL's start), so the initial build already contains the journaled
// mutations and System.Apply can journal new ones.
func NewSystem(db *Database, opts *SystemOptions) (*System, error) {
	s := &System{db: db}
	if opts != nil {
		s.opts = *opts
	}
	if _, err := s.openWAL(0, false); err != nil {
		return nil, err
	}
	s.mu.Lock()
	err := s.rebuildLocked()
	s.mu.Unlock()
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// rebuildLocked is the full rebuild behind NewSystem and Compact: build
// the engine from the database aside, optionally persist it, swap it in,
// and reset the live mutation state (fresh deltas over the new base; WAL
// truncated once the store has durably recorded the applied sequence).
// Callers hold s.mu.
func (s *System) rebuildLocked() error {
	if s.closed.Load() {
		return ErrClosed
	}
	// Read before the build: a write that lands during it leaves synced
	// behind, so it is caught by the next Apply or Compact, never missed.
	writes := s.db.inner.Writes()
	bo := graph.DefaultBuildOptions()
	bo.ScaleBackEdges = !s.opts.DisableBackEdgeScaling
	bo.PrestigeDamping = s.opts.PrestigeDamping
	g, ix, err := index.BuildEngine(s.db.inner, bo)
	if err != nil {
		return err
	}
	if s.opts.StorePath != "" {
		// Carry the current workload's hot terms into the persisted store
		// so the next open warms the same set. The cache is nil when
		// caching is disabled (MatchCacheBytes < 0) — no keys to carry.
		var warm []string
		if old := s.eng.Load(); old != nil && old.cache != nil {
			warm = old.cache.HotKeys(warmKeyLimit)
		}
		se := store.Engine{Graph: g, Index: ix, WarmKeys: warm, WALSeq: s.appliedSeq}
		if err := store.WriteFile(s.opts.StorePath, se); err != nil {
			return fmt.Errorf("banks: persisting rebuilt engine: %w", err)
		}
	}
	if s.wal != nil {
		// The rebuilt engine contains every applied mutation. With a
		// persisted store recording appliedSeq the journal tail is
		// redundant — drop it. Without one the WAL stays the only durable
		// record of the deltas, so it is retained for the next replay.
		if s.opts.StorePath != "" {
			if err := s.wal.Truncate(); err != nil {
				return fmt.Errorf("banks: truncating WAL after rebuild: %w", err)
			}
		}
		s.gd = graph.NewDelta(g, s.db.inner, !s.opts.DisableBackEdgeScaling)
		s.id = index.NewDelta(ix)
	}
	eng := newEngine(g, ix, s.opts)
	eng.walSeq = s.appliedSeq
	s.eng.Store(eng)
	s.synced = writes
	s.tail = nil
	return nil
}

// Close releases the resources behind the System: the write-ahead log of
// a live-mutation system and the disk store backing OpenSystem; it is a
// no-op for plain built
// systems. Close is idempotent — the first call decides the error and
// later calls return it — and safe to race with queries, Apply and
// Compact: operations that begin after Close fail with ErrClosed,
// while queries already in flight finish against the snapshot they
// pinned. (In-flight queries of a store-backed engine may still surface
// read errors, since they read the store file lazily.)
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return s.closeErr
	}
	s.closed.Store(true)
	var errs []error
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	s.closeErr = errors.Join(errs...)
	return s.closeErr
}

// Database returns the database the system was built over.
func (s *System) Database() *Database { return s.db }

// GraphStats summarize the in-memory data graph (§5.2).
type GraphStats struct {
	Tables int
	Nodes  int
	Arcs   int
	Bytes  int64 // estimated resident size of the graph structures
}

// GraphStats returns the current graph's size statistics.
func (s *System) GraphStats() GraphStats {
	g := s.engine().g
	return GraphStats{
		Tables: g.NumTables(),
		Nodes:  g.NumNodes(),
		Arcs:   g.NumArcs(),
		Bytes:  g.MemoryFootprint(),
	}
}

// IndexStats summarize the keyword index.
type IndexStats struct {
	Terms    int
	Postings int
}

// IndexStats returns the keyword index's size statistics.
func (s *System) IndexStats() IndexStats {
	ix := s.engine().ix
	return IndexStats{Terms: ix.NumTerms(), Postings: ix.NumPostings()}
}

// CacheStats summarize the current snapshot's keyword match-set cache.
// Counters reset whenever a publish starts a fresh cache: a rebuild, or a
// Compact that renumbers nodes.
type CacheStats struct {
	Hits     int64 // term lookups served from the cache
	Misses   int64 // term lookups that fell through to the index
	Entries  int   // resident match sets
	Bytes    int64 // charged bytes (keys + postings + overhead)
	MaxBytes int64 // configured budget (0 when caching is disabled)
	// Epoch is the invalidation epoch of the serving snapshot's cache.
	// Live mutations bump it once per Apply batch that changed any term's
	// match set; a carried cache keeps its counters across the bump.
	Epoch uint64
	// Invalidated counts cache entries dropped by targeted invalidation
	// when a publish carried the cache forward (only the batch's touched
	// terms and their covering prefixes are swept).
	Invalidated int64
	// WarmPublishes counts snapshot publishes (Apply, and Compact when
	// the numbering is unchanged) that carried the previous snapshot's
	// cache forward instead of starting cold.
	WarmPublishes int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// CacheStats returns the current snapshot's match-cache counters; all
// zeros when caching is disabled.
func (s *System) CacheStats() CacheStats {
	st := s.engine().cache.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Entries:       st.Entries,
		Bytes:         st.Bytes,
		MaxBytes:      st.MaxBytes,
		Epoch:         st.Epoch,
		Invalidated:   st.Invalidated,
		WarmPublishes: s.warmPublishes.Load(),
	}
}
