package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 samples spread evenly across 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	// With exponential buckets the estimate is coarse; assert the right
	// ballpark, not exactness.
	p50 := h.Quantile(0.50)
	if p50 < 25*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("p50 = %v, want ~50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*time.Millisecond || p99 > 110*time.Millisecond {
		t.Errorf("p99 = %v, want ~99ms", p99)
	}
	if h.Quantile(1) < p99 {
		t.Errorf("p100 %v < p99 %v", h.Quantile(1), p99)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	// A sample beyond the last bucket lands in overflow; quantiles there
	// report the observed max rather than +Inf.
	h.Observe(5 * time.Minute)
	if got := h.Quantile(0.99); got != 5*time.Minute {
		t.Errorf("overflow p99 = %v, want 5m", got)
	}
	h.Observe(-time.Second) // negative clamps to 0, must not panic
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", func() int64 { return 7 })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 {
		t.Errorf("counter = %d", s.Counters["c"])
	}
	if s.Gauges["g"] != 7 {
		t.Errorf("gauge = %d", s.Gauges["g"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("hist count = %d", s.Histograms["h"].Count)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total").Add(3)
	r.Gauge("cache_bytes", func() int64 { return 1024 })
	r.Histogram("lat").Observe(2 * time.Millisecond)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if decoded.Counters["queries_total"] != 3 || decoded.Gauges["cache_bytes"] != 1024 {
		t.Errorf("round trip lost data: %+v", decoded)
	}
	if decoded.Histograms["lat"].Count != 1 {
		t.Errorf("hist lost: %+v", decoded.Histograms)
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowQuery{Query: string(rune('a' + i))})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	// Most recent first: e, d, c.
	if got[0].Query != "e" || got[1].Query != "d" || got[2].Query != "c" {
		t.Errorf("entries = %v", got)
	}
	var nilLog *SlowLog
	nilLog.Add(SlowQuery{})
	if nilLog.Entries() != nil {
		t.Error("nil log must discard")
	}
}

func TestClassOfAndQueryLabel(t *testing.T) {
	cases := []struct {
		terms             int
		prefix, qualified bool
		want              string
	}{
		{1, false, false, "1term"},
		{2, false, false, "2term"},
		{3, false, false, "3term+"},
		{7, false, false, "3term+"},
		{2, true, false, "2term_prefix"},
		{2, false, true, "2term_qualified"},
		{1, true, true, "1term_qualified_prefix"},
	}
	for _, c := range cases {
		if got := ClassOf(c.terms, c.prefix, c.qualified); got != c.want {
			t.Errorf("ClassOf(%d,%v,%v) = %q, want %q", c.terms, c.prefix, c.qualified, got, c.want)
		}
	}
	if got := QueryLabel("", "2term"); got != "query_latency_backward_2term" {
		t.Errorf("QueryLabel = %q", got)
	}
	if got := QueryLabel("distributed", "1term"); got != "query_latency_distributed_1term" {
		t.Errorf("QueryLabel = %q", got)
	}
}

func TestObserveQueryAndSlowLog(t *testing.T) {
	m := NewMetrics(10*time.Millisecond, 8)
	m.ObserveQuery(QueryOutcome{Query: "fast", Class: "1term", Elapsed: time.Millisecond})
	m.ObserveQuery(QueryOutcome{Query: "slow", Class: "1term", Elapsed: 50 * time.Millisecond})
	m.ObserveQuery(QueryOutcome{Query: "killed", Class: "2term", Elapsed: time.Millisecond, BudgetExhausted: true})
	m.ObserveQuery(QueryOutcome{Query: "late", Class: "2term", Elapsed: time.Millisecond, TimedOut: true})

	s := m.Registry().Snapshot()
	if s.Counters["queries_total"] != 4 {
		t.Errorf("total = %d", s.Counters["queries_total"])
	}
	if s.Counters["queries_ok"] != 3 || s.Counters["queries_timeout"] != 1 {
		t.Errorf("outcomes: %v", s.Counters)
	}
	if s.Counters["queries_budget_exhausted"] != 1 {
		t.Errorf("budget count = %d", s.Counters["queries_budget_exhausted"])
	}
	slow := m.SlowQueries()
	if len(slow) != 3 { // slow, killed, late — not fast
		t.Fatalf("slow log = %v", slow)
	}
	if slow[0].Query != "late" || slow[2].Query != "slow" {
		t.Errorf("slow order = %v", slow)
	}

	// nil Metrics must be inert.
	var nilM *Metrics
	nilM.ObserveQuery(QueryOutcome{})
	nilM.BindGate(nil)
	if nilM.Registry() != nil || nilM.SlowQueries() != nil {
		t.Error("nil metrics must return nil views")
	}
}

func TestDebugHandler(t *testing.T) {
	m := NewMetrics(0, 0)
	m.ObserveQuery(QueryOutcome{Query: "sunita", Class: "1term", Elapsed: 600 * time.Millisecond})
	g := NewGate(GateConfig{Workers: 2, Queue: 4})
	m.BindGate(g)
	h := DebugHandler(m)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"gate_workers", "queries_total", "query_latency_backward_1term", "sunita"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if snap.Gauges["gate_workers"] != 2 || snap.Gauges["gate_queue_cap"] != 4 {
		t.Errorf("gate gauges: %v", snap.Gauges)
	}
	if snap.Counters["queries_total"] != 1 {
		t.Errorf("counters: %v", snap.Counters)
	}
}
