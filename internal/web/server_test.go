package web

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/browse"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/sqlexec"
)

// engineConfig is a Config over a freshly built single engine: the search
// function runs the core searcher and maps its answers through the graph.
func engineConfig(t *testing.T, db *sqldb.Database, opts *core.Options) Config {
	t.Helper()
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	searcher := core.NewSearcher(g, ix)
	if opts == nil {
		opts = core.DefaultOptions()
	}
	return Config{
		DB: db,
		Search: func(ctx context.Context, terms []string) (*cluster.Result, error) {
			req := cluster.RequestFromOptions(terms, false, false, opts)
			return cluster.Search(ctx, searcher, nil, db, &req, nil)
		},
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	db, err := datagen.BuildThesis(datagen.SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engineConfig(t, db, nil))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHomePage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, frag := range []string{"BANKS", "student", "thesis", "department", "/search"} {
		if !strings.Contains(body, frag) {
			t.Errorf("home missing %q", frag)
		}
	}
}

func TestSearchPage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/search?q="+url.QueryEscape("sudarshan aditya"))
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "Sudarshan") || !strings.Contains(body, "Aditya") {
		t.Error("search results missing matched entities")
	}
	if !strings.Contains(body, "score") {
		t.Error("scores not shown")
	}
	if !strings.Contains(body, "/tuple?table=") {
		t.Error("results not hyperlinked")
	}
	// Keyword nodes highlighted.
	if !strings.Contains(body, `class="keyword"`) {
		t.Error("keyword nodes not highlighted")
	}
}

func TestSearchEmptyShowsForm(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/search")
	if code != 200 || !strings.Contains(body, "<form") {
		t.Errorf("status=%d body form missing", code)
	}
}

func TestBrowsePage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/browse?table=student")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, frag := range []string{"<table>", "sort", "drop", "group", "Join in", "next page"} {
		if !strings.Contains(body, frag) {
			t.Errorf("browse missing %q", frag)
		}
	}
	// FK cells are hyperlinks to the referenced tuple.
	if !strings.Contains(body, "/tuple?table=program") {
		t.Error("FK hyperlink missing")
	}
}

func TestBrowseJoinAndFilter(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/browse?table=thesis&join=rollno&join=advisor&fcol=rollno&fop=%3D&fval="+datagen.StudentAditya)
	if code != 200 {
		t.Fatalf("status = %d, body=%s", code, body[:min(len(body), 300)])
	}
	if !strings.Contains(body, "Sudarshan") {
		t.Error("joined advisor name missing")
	}
}

func TestBrowseGroupBy(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/browse?table=student&groupby=progid")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "count") {
		t.Error("group-by counts missing")
	}
}

func TestBrowseErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := get(t, ts, "/browse"); code != http.StatusBadRequest {
		t.Errorf("missing table: status = %d", code)
	}
	if code, _ := get(t, ts, "/browse?table=nosuch"); code != http.StatusBadRequest {
		t.Errorf("bad table: status = %d", code)
	}
}

func TestTuplePage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/tuple?table=thesis&pk="+datagen.ThesisAditya)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "Keyword Searching in Graph Structured Data") {
		t.Error("thesis title missing")
	}
	// Outgoing FK links.
	if !strings.Contains(body, "/tuple?table=student") || !strings.Contains(body, "/tuple?table=faculty") {
		t.Error("FK links missing")
	}
	// Backward browsing from a referenced tuple.
	code, body = get(t, ts, "/tuple?table=student&pk="+datagen.StudentAditya)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "Referenced by") || !strings.Contains(body, "thesis") {
		t.Error("back references missing")
	}
}

func TestTupleIntegerPK(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/tuple?table=department&pk=1")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "Computer Science and Engineering") {
		t.Error("integer-keyed tuple not found")
	}
}

func TestTupleNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := get(t, ts, "/tuple?table=student&pk=zzz"); code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
	if code, _ := get(t, ts, "/tuple?table=nosuch&pk=1"); code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
}

func TestSchemaPage(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts, "/schema")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "CREATE TABLE") || !strings.Contains(body, "FOREIGN KEY") {
		t.Error("schema DDL missing")
	}
}

func TestTemplatePages(t *testing.T) {
	srv, ts := newTestServer(t)
	engine := sqlexec.New(srv.db)
	for _, tpl := range []browse.Template{
		{Name: "ct", Kind: browse.KindCrossTab, Table: "program",
			Spec: map[string]string{"row": "deptid", "col": "name"}},
		{Name: "gb", Kind: browse.KindGroupBy, Table: "student",
			Spec: map[string]string{"attrs": "progid"}},
		{Name: "fv", Kind: browse.KindFolder, Table: "student",
			Spec: map[string]string{"attrs": "progid,name"}},
		{Name: "pie", Kind: browse.KindChart, Table: "student",
			Spec: map[string]string{"label": "progid", "chart": "pie", "link": "gb"}},
		{Name: "bars", Kind: browse.KindChart, Table: "student",
			Spec: map[string]string{"label": "progid", "chart": "bar"}},
		{Name: "lines", Kind: browse.KindChart, Table: "student",
			Spec: map[string]string{"label": "progid", "chart": "line"}},
	} {
		if err := browse.SaveTemplate(engine, tpl); err != nil {
			t.Fatal(err)
		}
	}

	code, body := get(t, ts, "/template?name=ct")
	if code != 200 || !strings.Contains(body, "<table>") {
		t.Errorf("crosstab: %d", code)
	}
	code, body = get(t, ts, "/template?name=gb")
	if code != 200 || !strings.Contains(body, "path=") {
		t.Errorf("groupby: %d", code)
	}
	// Drill down one level.
	code, body = get(t, ts, "/template?name=gb&path=1")
	if code != 200 || !strings.Contains(body, "<table>") {
		t.Errorf("groupby leaves: %d", code)
	}
	code, body = get(t, ts, "/template?name=pie")
	if code != 200 || !strings.Contains(body, "<svg") || !strings.Contains(body, "Drill down") {
		t.Errorf("pie chart: %d", code)
	}
	code, body = get(t, ts, "/template?name=bars")
	if code != 200 || !strings.Contains(body, "<rect") {
		t.Errorf("bar chart: %d", code)
	}
	code, body = get(t, ts, "/template?name=lines")
	if code != 200 || !strings.Contains(body, "<polyline") {
		t.Errorf("line chart: %d", code)
	}
	if code, _ := get(t, ts, "/template?name=missing"); code != http.StatusNotFound {
		t.Errorf("missing template: %d", code)
	}
	// The home page now lists templates.
	_, home := get(t, ts, "/")
	if !strings.Contains(home, "Templates") || !strings.Contains(home, "pie") {
		t.Error("home template list missing")
	}
}

func TestHTMLEscaping(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := get(t, ts, "/search?q="+url.QueryEscape("<script>alert(1)</script>"))
	if strings.Contains(body, "<script>alert") {
		t.Error("unescaped user input")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSearchStrategyParam: there is one search path, so a strategy
// parameter — a name the engine once ran or any other — is ignored like
// every unknown parameter: the page is the one served without it, and the
// form offers no strategy to pick.
func TestSearchStrategyParam(t *testing.T) {
	_, ts := newTestServer(t)
	q := "/search?q=" + url.QueryEscape("sudarshan aditya")
	code, want := get(t, ts, q)
	if code != 200 || !strings.Contains(want, "Sudarshan") {
		t.Fatalf("plain search: status = %d", code)
	}
	if strings.Contains(want, "strategy") {
		t.Error("the search form still offers a strategy")
	}
	for _, strat := range []string{"backward", "batched", "distributed", "bogus"} {
		code, body := get(t, ts, q+"&strategy="+strat)
		if code != 200 || body != want {
			t.Errorf("strategy=%s: status %d, page differs from the plain search: %v", strat, code, body != want)
		}
	}
}

// TestSearchRejectsBeforeAdmission: everything the client can get wrong
// is a 400, decided before the search function is ever called.
func TestSearchRejectsBeforeAdmission(t *testing.T) {
	db, err := datagen.BuildThesis(datagen.SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(t, db, nil)
	search := cfg.Search
	calls := 0
	cfg.Search = func(ctx context.Context, terms []string) (*cluster.Result, error) {
		calls++
		return search(ctx, terms)
	}
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)
	for _, path := range []string{
		"/search?q=" + url.QueryEscape(", - !"), // characters but no keywords
		"/search?q=aditya&timeout=banana",
		"/search?q=aditya&timeout=-5s",
	} {
		if code, body := get(t, ts, path); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body = %s", path, code, body)
		}
	}
	if calls != 0 {
		t.Errorf("search ran %d times for malformed requests", calls)
	}
	// A roomy timeout succeeds, and the form echoes the field.
	code, body := get(t, ts, "/search?q=aditya&timeout=30s")
	if code != 200 || !strings.Contains(body, "Aditya") || !strings.Contains(body, `name="timeout"`) {
		t.Errorf("timeout=30s: status %d", code)
	}
}

// TestSearchClassFromTokens: the token count — not the whitespace field
// count — picks the class (and with it the gate): one field holding two
// keywords is a 2term query.
func TestSearchClassFromTokens(t *testing.T) {
	db, err := datagen.BuildThesis(datagen.SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(t, db, nil)
	cfg.Door.Metrics = serve.NewMetrics(0, 0)
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)
	if code, body := get(t, ts, "/search?q=sudarshan-aditya"); code != 200 || !strings.Contains(body, "Aditya") {
		t.Fatalf("hyphenated query: status %d", code)
	}
	_, vars := get(t, ts, "/debug/vars")
	if !strings.Contains(vars, "query_latency_backward_2term") || strings.Contains(vars, "_1term") {
		t.Errorf("one-field two-token query was not classed 2term: %s", vars)
	}
}

// TestTupleHTMLDeletedRow: a (table, rid) whose row is gone — deleted
// after the search pinned its snapshot — renders as a placeholder instead
// of indexing a nil row; so does a reference into a dropped table.
func TestTupleHTMLDeletedRow(t *testing.T) {
	srv, _ := newTestServer(t)
	tbl := srv.db.Table("thesis")
	rid := tbl.LookupPK([]sqldb.Value{sqldb.Text(datagen.ThesisAditya)})
	if rid < 0 {
		t.Fatal("fixture thesis row missing")
	}
	ref := cluster.Ref{Table: "thesis", RID: int64(rid)}
	if live := srv.tupleHTML(ref, false); !strings.Contains(live, "/tuple?table=thesis") {
		t.Fatalf("live row not rendered as a hyperlinked tuple: %s", live)
	}
	if err := srv.db.Delete("thesis", rid); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("thesis#%d (deleted)", rid)
	if got := srv.tupleHTML(ref, false); got != want {
		t.Errorf("deleted row rendered %q, want %q", got, want)
	}
	if got := srv.tupleHTML(ref, true); got != `<span class="keyword">`+want+`</span>` {
		t.Errorf("deleted keyword row rendered %q", got)
	}
	if got := srv.tupleHTML(cluster.Ref{Table: "nosuch", RID: 3}, false); got != "nosuch#3 (deleted)" {
		t.Errorf("missing table rendered %q", got)
	}
}

// TestDebugEndpoints: a Door with Metrics mounts /debug (human page) and
// /debug/vars (JSON), and a served search shows up in both.
func TestDebugEndpoints(t *testing.T) {
	db, err := datagen.BuildThesis(datagen.SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(t, db, nil)
	m := serve.NewMetrics(0, 0)
	cfg.Door = serve.Door{Metrics: m, Gate: serve.NewGate(serve.GateConfig{Workers: 2})}
	m.BindGate(cfg.Door.Gate)
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)

	if code, _ := get(t, ts, "/search?q=aditya"); code != 200 {
		t.Fatalf("search status = %d", code)
	}

	code, body := get(t, ts, "/debug")
	if code != 200 {
		t.Fatalf("/debug status = %d", code)
	}
	for _, frag := range []string{"gate_workers", "queries_total", "query_latency"} {
		if !strings.Contains(body, frag) {
			t.Errorf("/debug missing %q", frag)
		}
	}

	code, body = get(t, ts, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["queries_total"] != 1 {
		t.Errorf("queries_total = %d, want 1", snap.Counters["queries_total"])
	}
	if snap.Counters["queries_ok"] != 1 {
		t.Errorf("queries_ok = %d, want 1", snap.Counters["queries_ok"])
	}
}
