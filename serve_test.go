package banks

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/datagen"
)

// serveVars decodes the /debug/vars snapshot of a ServeHandler.
func serveVars(t *testing.T, handler http.Handler) (counters, gauges map[string]int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	return snap.Counters, snap.Gauges
}

// waitGateDrained polls /debug/vars until the gate reports no in-flight
// and no queued work. Responses can leave before the query goroutine
// frees its slot (a timed-out search is abandoned at the response layer
// and unwinds in the background), so tests must wait for the drain
// before auditing the counters.
func waitGateDrained(t *testing.T, handler http.Handler) (counters, gauges map[string]int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, gauges = serveVars(t, handler)
		if gauges["gate_inflight"] == 0 && gauges["gate_queued"] == 0 {
			// A snapshot reads counters before gauges, so the one that saw
			// the gate drain may predate the last run's observation (which
			// lands just before its slot is released). Read again.
			return serveVars(t, handler)
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate not drained: inflight=%d queued=%d",
				gauges["gate_inflight"], gauges["gate_queued"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The heavy TPC-D system — whose three-metadata-term query expands for
// seconds uncancelled, the workload that saturates a small admission
// gate — is built once and shared read-only across the serve tests
// (under -race the build dominates the test time).
var (
	heavyTPCDOnce sync.Once
	heavyTPCDSys  *System
	heavyTPCDErr  error
)

func newHeavyTPCDSystem(t *testing.T) *System {
	t.Helper()
	heavyTPCDOnce.Do(func() {
		inner, err := datagen.BuildTPCD(datagen.TPCDConfig{
			Parts: 2000, Suppliers: 500, Customers: 1000, Orders: 8000, LinesPer: 3, Seed: 7,
		})
		if err != nil {
			heavyTPCDErr = err
			return
		}
		heavyTPCDSys, heavyTPCDErr = NewSystem(wrapDatabase(inner), nil)
	})
	if heavyTPCDErr != nil {
		t.Fatal(heavyTPCDErr)
	}
	return heavyTPCDSys
}

// TestServeBudgetExhaustionTPCD pins the budget-kill contract on a heavy
// TPC-D query through the public API: a pops budget below the query's
// full cost truncates it with BudgetExhausted/"pops", and the truncation
// point and the partial answers are deterministic across repeated runs.
func TestServeBudgetExhaustionTPCD(t *testing.T) {
	sys := newHeavyTPCDSystem(t) // shared; not closed here
	ctx := context.Background()

	const budget = 5000
	heavy := Query{
		Text: "part orders lineitem",
		Options: &SearchOptions{
			TopK: 1 << 20, HeapSize: 1 << 10,
			Budget: Budget{MaxPops: budget},
		},
	}
	sig := func(r *Results) []string {
		var s []string
		for _, a := range r.Answers {
			s = append(s, fmt.Sprintf("%s/%d:%.6f", a.Root.Table, a.Root.RID, a.Score))
		}
		return s
	}
	first, err := sys.Query(ctx, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Stats.BudgetExhausted || first.Stats.BudgetReason != "pops" {
		t.Fatalf("exhausted=%v reason=%q, want pops", first.Stats.BudgetExhausted, first.Stats.BudgetReason)
	}
	if first.Stats.Pops > budget {
		t.Errorf("pops = %d, exceeds budget %d", first.Stats.Pops, budget)
	}
	// Partial answers come out ranked.
	for i, a := range first.Answers {
		if a.Rank != i+1 {
			t.Errorf("rank %d at position %d", a.Rank, i)
		}
	}
	// The truncation point is deterministic: an identical re-run (warm
	// caches and recycled arenas) stops at the same pops/arcs with the same
	// answers.
	second, err := sys.Query(ctx, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Pops != second.Stats.Pops || first.Stats.ArcsScanned != second.Stats.ArcsScanned {
		t.Errorf("truncation moved: pops %d->%d arcs %d->%d",
			first.Stats.Pops, second.Stats.Pops, first.Stats.ArcsScanned, second.Stats.ArcsScanned)
	}
	s1, s2 := sig(first), sig(second)
	if len(s1) != len(s2) {
		t.Fatalf("answer count changed: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("answer %d diverged: %s vs %s", i, s1[i], s2[i])
		}
	}
}

// TestServeMetricsConsistencyUnderChurn runs the full front door while
// the engine churns underneath it — concurrent searches through the
// handler, live Apply batches, and Refresh swaps — then checks the books
// balance: gate counters account for every request, the admitted count
// equals the observed query count, and the gate is fully drained. Four
// clients never exceed the gate's four slots, so churn must not make the
// door shed: every request is a 200.
func TestServeMetricsConsistencyUnderChurn(t *testing.T) {
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT);
		CREATE TABLE paper (id TEXT PRIMARY KEY, title TEXT);
		CREATE TABLE writes (aid TEXT REFERENCES author, pid TEXT REFERENCES paper);
		INSERT INTO author VALUES ('a1', 'Soumen Chakrabarti'),
			('a2', 'Sunita Sarawagi'), ('a3', 'Byron Dom');
		INSERT INTO paper VALUES ('p1', 'Mining Surprising Patterns');
		INSERT INTO writes VALUES ('a1', 'p1'), ('a2', 'p1'), ('a3', 'p1');
	`); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(db, &SystemOptions{WALPath: t.TempDir() + "/churn.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	handler := sys.ServeHandler(&ServeOptions{
		Search:      &SearchOptions{ExcludedRootTables: []string{"writes"}},
		MaxInFlight: 4,
		MaxQueue:    8,
	})

	var done atomic.Bool
	var requests atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup

	// Query workers hammering /search through the gate.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := "/search?q=" + url.QueryEscape("sunita soumen")
			for !done.Load() {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				requests.Add(1)
				if rec.Code != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	// Live mutations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			aid := fmt.Sprintf("c%d", i)
			_, err := sys.Apply(context.Background(), []Mutation{
				Insert("author", map[string]interface{}{"id": aid, "name": fmt.Sprintf("Churn Author %d", i)}),
				Insert("writes", map[string]interface{}{"aid": aid, "pid": "p1"}),
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Full refreshes swapping the engine under the handler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if err := sys.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	done.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Errorf("%d requests got a status other than 200", failed.Load())
	}
	counters, gauges := waitGateDrained(t, handler)
	if shed := gauges["gate_shed_total"] + gauges["gate_queue_timeout_total"]; shed != 0 {
		t.Errorf("gate shed %d requests below its capacity", shed)
	}
	admitted := gauges["gate_admitted_total"]
	total := admitted + gauges["gate_shed_total"] + gauges["gate_queue_timeout_total"] + gauges["gate_canceled_total"]
	if total != requests.Load() {
		t.Errorf("gate accounted for %d requests, clients sent %d", total, requests.Load())
	}
	if counters["queries_total"] != admitted {
		t.Errorf("queries_total = %d, admitted = %d", counters["queries_total"], admitted)
	}
	if counters["queries_total"] != counters["queries_ok"]+counters["queries_error"]+counters["queries_timeout"] {
		t.Errorf("query outcome counters don't sum: %v", counters)
	}
	// The engine gauges must be live against the churned engine.
	if gauges["graph_nodes"] == 0 || gauges["graph_arcs"] == 0 {
		t.Errorf("engine gauges dead: nodes=%d arcs=%d", gauges["graph_nodes"], gauges["graph_arcs"])
	}
}
