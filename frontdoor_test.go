package banks

// The front door's tests, once, over both backends: System.ServeHandler and
// Cluster.ServeHandler are the same handler around a different search
// function, so every contract below is table-driven over the two. The
// overload sequence itself is pinned against a fake run in
// internal/serve (TestDoStatus); these tests pin what only the real doors
// can show — the HTTP rendering of each status, the counters on
// /debug/vars, and the answers on the page.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/web"
)

// door is what the tests need of a backend: the public query (the
// reference the page is compared to) and the front door over it.
type door interface {
	Query(ctx context.Context, q Query) (*Results, error)
	ServeHandler(opts *ServeOptions) http.Handler
}

// doors returns the single engine and a parts-partition cluster over the
// same rows, keyed by name.
func doors(sys *System, cl *Cluster) map[string]door {
	return map[string]door{"System": sys, "Cluster": cl}
}

func doorGet(handler http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// quickstartDoors is the author/paper/writes fixture behind both doors.
// The system journals to a WAL so tests can Apply.
func quickstartDoors(t *testing.T) (*System, *Cluster) {
	t.Helper()
	db, built := newQuickstartSystem(t)
	paths := splitStore(t, built, 2)
	built.Close()
	sys, err := NewSystem(db, &SystemOptions{WALPath: t.TempDir() + "/door.wal"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	cl, err := OpenCluster(db, paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return sys, cl
}

// TestFrontDoorSaturation saturates the front door: with 2 worker slots
// and a queue of 2, a burst of 16 slow searches must shed the overflow
// immediately with 503 + the configured Retry-After, never admit more
// than slots + queue, drain completely, and leak no goroutines. The
// /debug/vars surface must agree with the client-observed outcomes.
func TestFrontDoorSaturation(t *testing.T) {
	sys := newHeavyTPCDSystem(t) // shared; not closed here
	cl, err := OpenCluster(sys.Database(), splitStore(t, sys, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name, d := range doors(sys, cl) {
		t.Run(name, func(t *testing.T) {
			handler := d.ServeHandler(&ServeOptions{
				Search:       &SearchOptions{TopK: 1 << 20, HeapSize: 1 << 10},
				MaxInFlight:  2,
				MaxQueue:     2,
				QueueTimeout: 5 * time.Second, // queued requests wait; only overflow sheds
				RetryAfter:   3 * time.Second,
			})
			before := runtime.NumGoroutine()

			const burst = 16
			// Each request carries its own 300ms timeout so admitted searches
			// end quickly (as 408s) and free their slots for the queued ones.
			path := "/search?q=" + url.QueryEscape("part orders lineitem") + "&timeout=300ms"
			var ok, clientTimeout, shed, other atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec := doorGet(handler, path)
					switch rec.Code {
					case http.StatusOK:
						ok.Add(1)
					case http.StatusRequestTimeout:
						clientTimeout.Add(1)
						if !strings.Contains(rec.Body.String(), "timed out") {
							t.Error("408 page does not say the search timed out")
						}
					case http.StatusServiceUnavailable:
						shed.Add(1)
						if got := rec.Header().Get("Retry-After"); got != "3" {
							t.Errorf("shed with Retry-After %q, want 3", got)
						}
						if !strings.Contains(rec.Body.String(), "shed") {
							t.Error("shed page does not say so")
						}
					default:
						other.Add(1)
					}
				}()
			}
			wg.Wait()

			if other.Load() != 0 {
				t.Errorf("%d requests got unexpected statuses", other.Load())
			}
			// 2 run + 2 queue = at most 4 admitted; the other 12 must shed.
			if shed.Load() < burst-4 {
				t.Errorf("shed = %d, want >= %d", shed.Load(), burst-4)
			}

			counters, gauges := waitGateDrained(t, handler)
			if gauges["gate_shed_total"] != shed.Load() {
				t.Errorf("gate_shed_total = %d, client saw %d", gauges["gate_shed_total"], shed.Load())
			}
			admitted := gauges["gate_admitted_total"]
			if got := admitted + gauges["gate_shed_total"] + gauges["gate_queue_timeout_total"] + gauges["gate_canceled_total"]; got != burst {
				t.Errorf("gate outcome counters sum to %d, want %d", got, burst)
			}
			// Every admitted request ran one observed query.
			if counters["queries_total"] != admitted {
				t.Errorf("queries_total = %d, admitted = %d", counters["queries_total"], admitted)
			}
			if counters["queries_timeout"] != clientTimeout.Load() {
				t.Errorf("queries_timeout = %d, clients saw %d x 408", counters["queries_timeout"], clientTimeout.Load())
			}

			// No goroutine leak once the burst drains.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before+2 {
				t.Errorf("goroutines = %d, was %d before the burst", g, before)
			}
		})
	}
}

// TestFrontDoorHeavyGateClasses: with a heavy gate installed, multi-term
// searches are admitted by gate_heavy while single-term searches use the
// default gate — and it is the token count that decides, so one
// whitespace-free field holding two keywords is heavy.
func TestFrontDoorHeavyGateClasses(t *testing.T) {
	sys, cl := quickstartDoors(t)
	for name, d := range doors(sys, cl) {
		t.Run(name, func(t *testing.T) {
			handler := d.ServeHandler(&ServeOptions{
				Search:           &SearchOptions{ExcludedRootTables: []string{"writes"}},
				MaxInFlight:      4,
				HeavyMaxInFlight: 2,
			})
			for _, q := range []string{
				"sunita",        // 1term -> default gate
				"sunita soumen", // heavy -> heavy gate
				"sunita-soumen", // two tokens in one field: still heavy
			} {
				if rec := doorGet(handler, "/search?q="+url.QueryEscape(q)); rec.Code != http.StatusOK {
					t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body.String())
				}
			}
			_, gauges := waitGateDrained(t, handler)
			if got := gauges["gate_admitted_total"]; got != 1 {
				t.Errorf("default gate admitted %d, want 1", got)
			}
			if got := gauges["gate_heavy_admitted_total"]; got != 2 {
				t.Errorf("heavy gate admitted %d, want 2", got)
			}
		})
	}
}

// TestFrontDoorStatusMapping: what the client got wrong is a 400 decided
// before admission; a client-chosen deadline is a 408; the server's own
// deadline is overload, 503 + Retry-After.
func TestFrontDoorStatusMapping(t *testing.T) {
	sys, cl := quickstartDoors(t)
	for name, d := range doors(sys, cl) {
		t.Run(name, func(t *testing.T) {
			handler := d.ServeHandler(&ServeOptions{MaxInFlight: 2})
			for _, path := range []string{
				"/search?q=%2C+-",
				"/search?q=sunita&timeout=banana",
				"/search?q=sunita&timeout=-5s",
			} {
				if rec := doorGet(handler, path); rec.Code != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", path, rec.Code)
				}
			}
			// Both backends have one search path: a strategy parameter is
			// ignored like any other unknown parameter.
			strategies := []string{"bogus", "backward", "batched", "distributed"}
			for _, strategy := range strategies {
				if rec := doorGet(handler, "/search?q=sunita&strategy="+strategy); rec.Code != http.StatusOK {
					t.Errorf("strategy %s: status %d, want 200", strategy, rec.Code)
				}
			}
			_, gauges := waitGateDrained(t, handler)
			if got := gauges["gate_admitted_total"]; got != int64(len(strategies)) {
				t.Errorf("gate admitted %d requests, want only the %d valid ones", got, len(strategies))
			}
			// The latency histogram keeps the backend's name, whatever the
			// request asked for.
			hist := map[string]string{"System": "query_latency_backward_1term", "Cluster": "query_latency_distributed_1term"}[name]
			if vars := doorGet(handler, "/debug/vars").Body.String(); !strings.Contains(vars, `"`+hist+`"`) || strings.Contains(vars, "query_latency_batched") {
				t.Errorf("/debug/vars lacks %s or names a requested strategy: %s", hist, vars)
			}

			rec := doorGet(handler, "/search?q=sunita+soumen&timeout=1ns")
			if rec.Code != http.StatusRequestTimeout || !strings.Contains(rec.Body.String(), "timed out") {
				t.Errorf("1ns client timeout: status %d, body %s", rec.Code, rec.Body.String())
			}

			impatient := d.ServeHandler(&ServeOptions{DefaultTimeout: time.Nanosecond})
			rec = doorGet(impatient, "/search?q=sunita+soumen")
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Errorf("1ns server timeout: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
			}
		})
	}
}

// rootRe pulls the root tuple's hyperlink out of each rendered answer.
var rootRe = regexp.MustCompile(`<div class="tree"><p>\d+\. .*?<ul><li>(?:<span class="keyword">)?<a href="/tuple\?table=([^&]+)&pk=([^"]+)">`)

// TestFrontDoorTokenizesLikeQuery: /search?q=sunita,+soumen renders the
// roots Query returns for "sunita, soumen", in order. (With whitespace
// splitting the door searched for the token "sunita," and found nothing.)
func TestFrontDoorTokenizesLikeQuery(t *testing.T) {
	sys, cl := quickstartDoors(t)
	opts := &SearchOptions{ExcludedRootTables: []string{"writes"}}
	for name, d := range doors(sys, cl) {
		t.Run(name, func(t *testing.T) {
			res, err := d.Query(context.Background(), Query{Text: "sunita, soumen", Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, a := range res.Answers {
				want = append(want, fmt.Sprintf("%s/%v", a.Root.Table, a.Root.Values[0])) // id is the first column
			}
			if len(want) == 0 {
				t.Fatal("fixture query has no answers")
			}
			rec := doorGet(d.ServeHandler(&ServeOptions{Search: opts}), "/search?q=sunita,+soumen")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var got []string
			for _, m := range rootRe.FindAllStringSubmatch(rec.Body.String(), -1) {
				got = append(got, m[1]+"/"+m[2])
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("page roots = %v, Query roots = %v", got, want)
			}
		})
	}
}

// TestFrontDoorPages: both doors serve the whole UI — the cluster's is no
// longer search-only.
func TestFrontDoorPages(t *testing.T) {
	sys, cl := quickstartDoors(t)
	for name, d := range doors(sys, cl) {
		t.Run(name, func(t *testing.T) {
			handler := d.ServeHandler(nil)
			engineGauge := map[string]string{"System": "graph_nodes", "Cluster": "cluster_partitions"}[name]
			for _, page := range [][2]string{
				{"/", "Relations"},
				{"/search?q=sunita", "Sarawagi"},
				{"/browse?table=author", "Sarawagi"},
				{"/tuple?table=author&pk=a2", "Referenced by"},
				{"/schema", "CREATE TABLE"},
				{"/debug", "queries_total"},
				{"/debug/vars", engineGauge},
			} {
				rec := doorGet(handler, page[0])
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), page[1]) {
					t.Errorf("%s: status %d, %q missing", page[0], rec.Code, page[1])
				}
			}
			if rec := doorGet(handler, "/template?name=nosuch"); rec.Code != http.StatusNotFound {
				t.Errorf("/template is not mounted: status %d", rec.Code)
			}
		})
	}
}

// failingPartition answers the handshake and fails every scatter leg.
type failingPartition struct{ cluster.Partition }

func (failingPartition) Query(context.Context, cluster.Request) (*cluster.Result, error) {
	return nil, errors.New("disk on fire")
}

// TestFrontDoorRunErrorIs500: an error out of the run itself is the
// server's fault, never the client's — a partition leg that fails, and a
// store-backed engine whose segment faulted, both answer 500.
func TestFrontDoorRunErrorIs500(t *testing.T) {
	db, sys := newQuickstartSystem(t)
	defer sys.Close()
	var parts []cluster.Partition
	for i, path := range splitStore(t, sys, 2) {
		p, err := cluster.OpenLocal(fmt.Sprintf("p%d", i), path, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	parts[0] = failingPartition{parts[0]} // holds both authors, so the broker must route to it
	cl, err := newCluster(db, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	handler := cl.ServeHandler(nil)
	rec := doorGet(handler, "/search?q=sunita+soumen")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "disk on fire") {
		t.Errorf("failed partition leg: status %d, body %s", rec.Code, rec.Body.String())
	}
	counters, _ := waitGateDrained(t, handler)
	if counters["queries_total"] != 1 || counters["queries_error"] != 1 {
		t.Errorf("failed leg not observed as one error: %v", counters)
	}
}

// TestFrontDoorRendersDeletedRow: a row reachable from an answer is
// deleted after the search pinned its snapshot and before the page reads
// it. The page must render — with a placeholder where the row was — on
// both doors.
func TestFrontDoorRendersDeletedRow(t *testing.T) {
	const victim = 0 // writes(a1, p1): on the tree joining soumen to sunita, referenced by nothing
	sopts := &SearchOptions{ExcludedRootTables: []string{"writes"}}
	for _, name := range []string{"System", "Cluster"} {
		t.Run(name, func(t *testing.T) {
			sys, cl := quickstartDoors(t)
			cfg, gauges := web.Config{DB: sys.db.inner, Search: doorSearch(sys.search, sopts)}, sys.bindEngineGauges
			remove := func() error {
				_, err := sys.Apply(context.Background(), []Mutation{Delete("writes", victim)})
				return err
			}
			if name == "Cluster" {
				// The partitions keep serving the row; only the database
				// the page renders from loses it.
				cfg, gauges = web.Config{DB: cl.db.inner, Search: doorSearch(cl.search, sopts)}, cl.bindClusterGauges
				remove = func() error { return cl.db.inner.Delete("writes", victim) }
			}
			search := cfg.Search
			cfg.Search = func(ctx context.Context, terms []string) (*cluster.Result, error) {
				res, err := search(ctx, terms)
				if derr := remove(); derr != nil {
					t.Errorf("deleting the row: %v", derr)
				}
				return res, err
			}
			rec := doorGet(newFrontDoor(&ServeOptions{}, cfg, gauges), "/search?q=sunita+soumen")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			body := rec.Body.String()
			if !strings.Contains(body, fmt.Sprintf("writes#%d (deleted)", victim)) {
				t.Errorf("no placeholder for the deleted row: %s", body)
			}
			if !strings.Contains(body, "Mining Surprising Patterns") || !strings.Contains(body, "Sarawagi") {
				t.Errorf("the surviving rows of the tree are missing: %s", body)
			}
		})
	}
}
