package banks

import (
	"context"
	"net/http"
	"time"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/store"
	"github.com/banksdb/banks/internal/web"
)

// ServeOptions configure the production front door ServeHandler (of a
// System or a Cluster) puts in front of the web UI: admission control,
// default deadlines, and observability. The zero value serves with
// admission control and server-side deadlines disabled but observability
// on.
type ServeOptions struct {
	// Search sets the default search parameters (nil: the paper's
	// defaults), including any per-query cost Budget.
	Search *SearchOptions
	// MaxInFlight caps concurrently executing searches (0: no admission
	// control). Requests beyond it wait in the bounded queue.
	MaxInFlight int
	// MaxQueue caps searches waiting for a worker slot (meaningful only
	// with MaxInFlight > 0). A request arriving to a full queue is shed
	// immediately with 503 + Retry-After.
	MaxQueue int
	// QueueTimeout sheds a queued request that waited this long
	// (0: wait as long as the client's context allows).
	QueueTimeout time.Duration
	// HeavyMaxInFlight, when positive, installs a second admission gate
	// for the heavy query classes (multi-term, prefix and qualified —
	// serve.IsHeavyClass): heavy requests contend only for these slots,
	// so a burst of expensive queries cannot starve cheap single-term
	// traffic out of the main gate. 0 keeps one shared gate.
	HeavyMaxInFlight int
	// HeavyMaxQueue caps heavy searches waiting for a heavy slot
	// (meaningful only with HeavyMaxInFlight > 0).
	HeavyMaxQueue int
	// HeavyQueueTimeout sheds a queued heavy request that waited this
	// long (0: wait as long as the client's context allows).
	HeavyQueueTimeout time.Duration
	// DefaultTimeout bounds searches whose request did not choose its own
	// timeout parameter (0: unbounded). Expiry maps to 503 + Retry-After.
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint attached to shed responses
	// (0: one second).
	RetryAfter time.Duration
	// SlowQuery routes queries at or above this latency into the
	// slow-query log on /debug (0: 500ms).
	SlowQuery time.Duration
	// SlowLogSize is how many slow queries /debug retains (0: 64).
	SlowLogSize int
}

// ServeHandler returns the BANKS web interface — keyword search with
// hyperlinked connection trees, the Section 4 browsing views (column
// controls, FK hyperlinks, backward reference browsing), schema display
// and the display templates — behind the production front door: admission
// control with load shedding on /search, per-query latency histograms and
// outcome counters, a slow-query log, and the /debug + /debug/vars
// observability surface wired to the live engine (match cache, store
// residency, pending mutations).
//
// Each search pins the engine snapshot current at its start and honours
// the request's context, so the handler is safe to serve concurrently
// with Refresh and Apply. The form's timeout field puts a per-query
// deadline on the search.
//
// Status mapping: a malformed request (no keywords, a bad timeout) gets
// 400 before admission; a shed or queue-timed-out
// request gets 503 with a Retry-After hint; a search that exceeds the
// server's DefaultTimeout also gets 503 + Retry-After; a search that
// exceeds a client-chosen timeout parameter gets 408; a search that fails
// (a store fault) gets 500.
func (s *System) ServeHandler(opts *ServeOptions) http.Handler {
	if opts == nil {
		opts = &ServeOptions{}
	}
	return newFrontDoor(opts, web.Config{
		DB:       s.db.inner,
		Search:   doorSearch(s.search, opts.Search),
		Strategy: "backward",
	}, s.bindEngineGauges)
}

// Handler is ServeHandler with admission control and server-side
// deadlines off: the web interface over this system with opts as the
// default search parameters.
//
//	http.ListenAndServe(":8080", sys.Handler(nil))
func (s *System) Handler(opts *SearchOptions) http.Handler {
	return s.ServeHandler(&ServeOptions{Search: opts})
}

// newFrontDoor is the one constructor behind System.ServeHandler and
// Cluster.ServeHandler: it builds the admission gates and the metrics
// bundle opts describe, lets the backend register its gauges, and mounts
// the web UI over cfg (whose Door it fills in).
func newFrontDoor(opts *ServeOptions, cfg web.Config, bindGauges func(*serve.Metrics)) http.Handler {
	m := serve.NewMetrics(opts.SlowQuery, opts.SlowLogSize)
	cfg.Door = serve.Door{Metrics: m, DefaultTimeout: opts.DefaultTimeout}
	if opts.MaxInFlight > 0 {
		cfg.Door.Gate = serve.NewGate(serve.GateConfig{
			Workers:      opts.MaxInFlight,
			Queue:        opts.MaxQueue,
			QueueTimeout: opts.QueueTimeout,
			RetryAfter:   opts.RetryAfter,
		})
	}
	if opts.HeavyMaxInFlight > 0 {
		cfg.Door.HeavyGate = serve.NewGate(serve.GateConfig{
			Workers:      opts.HeavyMaxInFlight,
			Queue:        opts.HeavyMaxQueue,
			QueueTimeout: opts.HeavyQueueTimeout,
			RetryAfter:   opts.RetryAfter,
		})
	}
	m.BindGate(cfg.Door.Gate)
	m.BindGateNamed("gate_heavy", cfg.Door.HeavyGate)
	bindGauges(m)
	return web.NewServer(cfg)
}

// doorSearch is the search behind the front door, over either backend.
// The door renders the wire answers itself, so nothing here converts on
// emission or builds public Answers.
func doorSearch(search backend, sopts *SearchOptions) web.SearchFunc {
	base := cluster.RequestFromOptions(nil, false, false, sopts.toCore())
	return func(ctx context.Context, terms []string) (*cluster.Result, error) {
		req := base
		req.Terms = terms
		return search(ctx, &req, nil)
	}
}

// bindEngineGauges registers the engine's live state — the gauges the
// serving tier watches for capacity decisions — on the metrics registry.
// Every gauge samples the current engine snapshot at read time, so the
// numbers stay truthful across Refresh/Apply swaps.
func (s *System) bindEngineGauges(m *serve.Metrics) {
	reg := m.Registry()
	reg.Gauge("cache_hits", func() int64 { return s.CacheStats().Hits })
	reg.Gauge("cache_misses", func() int64 { return s.CacheStats().Misses })
	reg.Gauge("cache_entries", func() int64 { return int64(s.CacheStats().Entries) })
	reg.Gauge("cache_bytes", func() int64 { return s.CacheStats().Bytes })
	reg.Gauge("cache_epoch", func() int64 { return int64(s.CacheStats().Epoch) })
	reg.Gauge("cache_invalidated", func() int64 { return s.CacheStats().Invalidated })
	reg.Gauge("warm_publishes", func() int64 { return s.CacheStats().WarmPublishes })
	reg.Gauge("graph_nodes", func() int64 { return int64(s.GraphStats().Nodes) })
	reg.Gauge("graph_arcs", func() int64 { return int64(s.GraphStats().Arcs) })
	reg.Gauge("pending_mutations", func() int64 { return int64(s.PendingMutations()) })
	if _, ok := s.StoreStats(); ok {
		reg.Gauge("store_faulted_bytes", func() int64 { st, _ := s.StoreStats(); return st.FaultedBytes })
	}
}

// StoreStats returns the disk store's residency counters; ok is false for
// purely in-memory systems.
func (s *System) StoreStats() (st store.Stats, ok bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}
