package cluster

// The Partition interface and its in-process implementation. A Partition
// is one shard of the cluster: a store-backed engine that answers
// scatter-gather queries in wire form and describes itself (tables,
// size, routing sketch) at handshake time. Local runs in-process over an
// open store or a built engine; Remote (remote.go) adapts the same
// interface over HTTP/JSON so partitions can live in separate processes.

import (
	"context"
	"fmt"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/store"
)

// Partition is one shard of a partitioned cluster.
type Partition interface {
	// Name identifies the partition in stats, metrics and errors.
	Name() string
	// Meta describes the partition: table set (all partitions of a
	// cluster must agree), size, and the encoded routing sketch.
	Meta(ctx context.Context) (Meta, error)
	// Query runs one scatter-gather leg against the partition-local
	// engine and returns wire-form answers.
	Query(ctx context.Context, req Request) (*Result, error)
	// Close releases the partition's resources.
	Close() error
}

// Local is an in-process partition over a store-backed (or directly
// built) engine.
type Local struct {
	name   string
	st     *store.Store // nil for engine-backed partitions
	g      *graph.Graph
	ix     *index.Index
	s      *core.Searcher
	sketch []byte
}

// OpenLocal opens the partition store at path as an in-process partition.
// budgetBytes bounds the store's decoded-block cache (0: unbounded).
func OpenLocal(name, path string, budgetBytes int64) (*Local, error) {
	st, err := store.Open(path, store.Options{BudgetBytes: budgetBytes})
	if err != nil {
		return nil, err
	}
	sketch, err := st.TermStats()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("cluster: partition %s: reading term stats: %w", name, err)
	}
	l := &Local{
		name:   name,
		st:     st,
		g:      st.Graph(),
		ix:     st.Index(),
		sketch: sketch,
	}
	l.s = core.NewSearcher(l.g, l.ix).WithFaultMeter(st.FaultedBytes)
	return l, nil
}

// NewLocalEngine wraps an already-built engine (no store) as a partition;
// sketch may be nil (the broker then always routes here).
func NewLocalEngine(name string, g *graph.Graph, ix *index.Index, sketch []byte) *Local {
	return &Local{
		name:   name,
		g:      g,
		ix:     ix,
		s:      core.NewSearcher(g, ix),
		sketch: sketch,
	}
}

// Name implements Partition.
func (l *Local) Name() string { return l.name }

// Meta implements Partition.
func (l *Local) Meta(ctx context.Context) (Meta, error) {
	m := Meta{
		Name:   l.name,
		Nodes:  l.g.NumNodes(),
		Arcs:   l.g.NumArcs(),
		Sketch: l.sketch,
	}
	for t := int32(0); t < int32(l.g.NumTables()); t++ {
		m.Tables = append(m.Tables, l.g.TableName(t))
	}
	return m, nil
}

// Query implements Partition: the backward expanding search over the
// partition-local engine, pinned against a concurrent Close.
func (l *Local) Query(ctx context.Context, req Request) (*Result, error) {
	if l.st != nil {
		if !l.st.Acquire() {
			return nil, fmt.Errorf("cluster: partition %s is closed", l.name)
		}
		defer l.st.Release()
	}
	return Search(ctx, l.s, l.st, nil, &req, nil)
}

// Search runs req on one local engine — a partition's, or the snapshot a
// single-engine System pinned — and returns its answers in wire form. It
// is the one place a search runs on a local engine. st is the store the
// engine reads from (nil for a built engine): the caller holds it pinned,
// and a lazy-load failure during the search fails the query instead of
// silently shrinking its results. db resolves attribute qualifiers; a
// partition holds no rows and passes nil. cb, when non-nil, sees each
// answer in wire form the moment the output heap emits it, and returning
// false stops the search with the answers emitted so far. A search that
// fails still returns the statistics of the work it did.
func Search(ctx context.Context, s *core.Searcher, st *store.Store, db *sqldb.Database, req *Request, cb func(*Answer) bool) (*Result, error) {
	g := s.Graph()
	// emitted is allocated only for a streaming caller, so the plain
	// search path stays as cheap as a direct core query.
	var emitted *[]Answer
	var emit func(*core.Answer) bool
	if cb != nil {
		emitted = new([]Answer)
		emit = func(a *core.Answer) bool {
			w := AnswerToWire(g, a)
			*emitted = append(*emitted, w)
			return cb(&w)
		}
	}
	answers, stats, err := s.Query(ctx, core.Request{
		Terms:     req.Terms,
		Qualified: req.Qualified,
		Prefix:    req.Prefix,
		DB:        db,
	}, req.CoreOptions(), emit)
	return wireResult(g, st, answers, stats, emitted, err)
}

// wireResult finishes Search. It is a function of its own so that its
// temporaries are not part of Search's frame, which sits on the stack
// under the whole core search: the front door runs each search on a
// fresh goroutine, and a few hundred more bytes there force a stack
// growth on every request.
func wireResult(g graph.View, st *store.Store, answers []*core.Answer, stats *core.Stats, emitted *[]Answer, err error) (*Result, error) {
	res := &Result{Stats: StatsFromCore(stats)}
	if err != nil {
		return res, err
	}
	if st != nil {
		if serr := st.Err(); serr != nil {
			return res, fmt.Errorf("cluster: disk-resident engine: %w", serr)
		}
	}
	if emitted != nil {
		// The core trims the output heap's overshoot (a visit can emit an
		// answer or two beyond TopK) after emission, so its list is a
		// prefix of the emission order: reuse those conversions.
		res.Answers = (*emitted)[:len(answers)]
		return res, nil
	}
	if len(answers) > 0 {
		res.Answers = make([]Answer, len(answers))
		for i, a := range answers {
			res.Answers[i] = AnswerToWire(g, a)
		}
	}
	return res, nil
}

// Close implements Partition.
func (l *Local) Close() error {
	if l.st != nil {
		return l.st.Close()
	}
	return nil
}
