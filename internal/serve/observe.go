package serve

import (
	"time"
)

// Metrics bundles what the serving tier records per query: the registry
// of counters/gauges/histograms and the slow-query log, plus the
// threshold that routes a query into the log. A nil *Metrics disables
// all recording.
type Metrics struct {
	reg  *Registry
	slow *SlowLog
	// SlowThreshold routes queries at or above this latency into the
	// slow-query log (0: 500ms).
	slowThreshold time.Duration
}

// NewMetrics builds the serving tier's observability bundle.
// slowThreshold <= 0 defaults to 500ms; slowCap <= 0 defaults to 64
// retained slow queries.
func NewMetrics(slowThreshold time.Duration, slowCap int) *Metrics {
	if slowThreshold <= 0 {
		slowThreshold = 500 * time.Millisecond
	}
	return &Metrics{
		reg:           NewRegistry(),
		slow:          NewSlowLog(slowCap),
		slowThreshold: slowThreshold,
	}
}

// Registry returns the underlying instrument registry (nil-safe).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SlowQueries returns the slow-query log entries, most recent first.
func (m *Metrics) SlowQueries() []SlowQuery {
	if m == nil {
		return nil
	}
	return m.slow.Entries()
}

// QueryOutcome describes one finished query for ObserveQuery.
type QueryOutcome struct {
	Query    string // the query text as received
	Strategy string // the backend's search: backward or distributed ("" = backward)
	Class    string // ClassOf the request
	Elapsed  time.Duration
	Err      error // nil on success
	// BudgetExhausted mirrors the search's Stats.BudgetExhausted: the
	// query was truncated by its cost budget.
	BudgetExhausted bool
	// TimedOut reports a context deadline ending the query.
	TimedOut bool
	// Detail carries the engine's execution statistics into the
	// slow-query log (the web door's is a *cluster.Stats).
	Detail any
}

// ObserveQuery records one finished query: the per-(strategy, class)
// latency histogram, outcome counters, and — when it crossed the slow
// threshold — the slow-query log. Safe on a nil *Metrics.
func (m *Metrics) ObserveQuery(o QueryOutcome) {
	if m == nil {
		return
	}
	if o.Strategy == "" {
		o.Strategy = "backward" // QueryLabel does the same
	}
	m.reg.Histogram(QueryLabel(o.Strategy, o.Class)).Observe(o.Elapsed)
	m.reg.Counter("queries_total").Inc()
	switch {
	case o.TimedOut:
		m.reg.Counter("queries_timeout").Inc()
	case o.Err != nil:
		m.reg.Counter("queries_error").Inc()
	default:
		m.reg.Counter("queries_ok").Inc()
	}
	if o.BudgetExhausted {
		m.reg.Counter("queries_budget_exhausted").Inc()
	}
	if o.Elapsed >= m.slowThreshold || o.TimedOut || o.BudgetExhausted {
		m.slow.Add(SlowQuery{
			When:     time.Now(),
			Query:    o.Query,
			Strategy: o.Strategy,
			Class:    o.Class,
			Elapsed:  o.Elapsed,
			Detail:   o.Detail,
		})
	}
}

// BindGate registers the gate's live counters as gauges so admission
// state shows up on /debug alongside everything else.
func (m *Metrics) BindGate(g *Gate) { m.BindGateNamed("gate", g) }

// BindGateNamed is BindGate under an explicit gauge-name prefix, for
// servers running more than one admission gate (per-class admission:
// a "gate" for cheap queries and a "gate_heavy" for expensive ones).
func (m *Metrics) BindGateNamed(prefix string, g *Gate) {
	if m == nil || g == nil {
		return
	}
	m.reg.Gauge(prefix+"_inflight", func() int64 { return int64(g.Stats().InFlight) })
	m.reg.Gauge(prefix+"_queued", func() int64 { return int64(g.Stats().Queued) })
	m.reg.Gauge(prefix+"_workers", func() int64 { return int64(g.Stats().Workers) })
	m.reg.Gauge(prefix+"_queue_cap", func() int64 { return int64(g.Stats().Queue) })
	m.reg.Gauge(prefix+"_admitted_total", func() int64 { return g.Stats().Admitted })
	m.reg.Gauge(prefix+"_shed_total", func() int64 { return g.Stats().Shed })
	m.reg.Gauge(prefix+"_queue_timeout_total", func() int64 { return g.Stats().TimedOut })
	m.reg.Gauge(prefix+"_canceled_total", func() int64 { return g.Stats().Canceled })
}
