package web

// End-to-end browsing coverage over the DBLP generator: a keyword search
// result links into a tuple render, whose foreign-key hyperlink leads to
// the referenced tuple, which in turn reports its incoming references —
// the full §4 browse loop (search → display → follow link → backward
// browse) exercised through the HTTP handlers rather than the template
// layer alone.

import (
	"context"
	"errors"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
)

func newDBLPServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.ExcludedRootTables = []string{"Writes", "Cites"}
	ts := httptest.NewServer(NewServer(engineConfig(t, db, opts)))
	t.Cleanup(ts.Close)
	return ts
}

// hrefRe pulls every href out of a rendered page.
var hrefRe = regexp.MustCompile(`href="([^"]+)"`)

func hrefs(body, prefix string) []string {
	var out []string
	for _, m := range hrefRe.FindAllStringSubmatch(body, -1) {
		href := strings.ReplaceAll(m[1], "&amp;", "&")
		if strings.HasPrefix(href, prefix) {
			out = append(out, href)
		}
	}
	return out
}

func TestBrowseFromQueryResultToRowAndAcrossFK(t *testing.T) {
	ts := newDBLPServer(t)

	// 1. A keyword search whose connection trees contain Writes nodes
	// (author–paper links) and hyperlink every tuple with a single-column
	// primary key.
	code, body := get(t, ts, "/search?q=sunita+soumen")
	if code != 200 {
		t.Fatalf("/search status = %d", code)
	}
	if !strings.Contains(body, "score") {
		t.Fatal("search page shows no scored answers")
	}
	tupleLinks := hrefs(body, "/tuple?")
	if len(tupleLinks) == 0 {
		t.Fatal("search results contain no tuple hyperlinks")
	}

	// 2. Follow the first result row into its tuple render. DBLP search
	// answers root at Paper or Author; either renders a column table.
	code, tupleBody := get(t, ts, tupleLinks[0])
	if code != 200 {
		t.Fatalf("tuple render %s: status = %d", tupleLinks[0], code)
	}
	if !strings.Contains(tupleBody, "<th>") || !strings.Contains(tupleBody, "<td>") {
		t.Fatalf("tuple render %s shows no column table", tupleLinks[0])
	}
	// Backward browsing: a cited paper / written paper reports who
	// references it.
	if !strings.Contains(tupleBody, "Referenced by") {
		t.Fatalf("tuple render %s lists no incoming references", tupleLinks[0])
	}

	// 3. Browse the Writes link table: every row renders its FK values as
	// hyperlinks into the referenced Author/Paper tuples.
	code, browseBody := get(t, ts, "/browse?table=Writes")
	if code != 200 {
		t.Fatalf("/browse status = %d", code)
	}
	fkLinks := hrefs(browseBody, "/tuple?")
	if len(fkLinks) == 0 {
		t.Fatal("browse view of Writes has no FK hyperlinks")
	}
	var authorLink string
	for _, l := range fkLinks {
		if strings.Contains(l, "table=Author") {
			authorLink = l
			break
		}
	}
	if authorLink == "" {
		t.Fatalf("no Author FK link among %d tuple links", len(fkLinks))
	}

	// 4. Follow the FK link: the referenced author row renders with its
	// name column and its incoming references (the papers they wrote).
	code, authorBody := get(t, ts, authorLink)
	if code != 200 {
		t.Fatalf("FK link %s: status = %d", authorLink, code)
	}
	if !strings.Contains(authorBody, "AuthorName") {
		t.Fatalf("author tuple %s missing its columns", authorLink)
	}
	if !strings.Contains(authorBody, "Referenced by") || !strings.Contains(authorBody, "Writes") {
		t.Fatalf("author tuple %s missing backward references", authorLink)
	}
}

// TestSearchFailsLoudlyOnEngineError: with a disk-resident engine a lazy
// segment fault degrades to empty results inside the search core; the
// search function reports it as an error, and any error out of the run
// must become a 500, never a quiet empty page (nor a 400 blaming the
// client).
func TestSearchFailsLoudlyOnEngineError(t *testing.T) {
	db, err := datagen.BuildThesis(datagen.SmallThesis())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(t, db, nil)
	search := cfg.Search
	cfg.Search = func(ctx context.Context, terms []string) (*cluster.Result, error) {
		res, _ := search(ctx, terms)
		return res, errors.New("arcs segment checksum mismatch")
	}
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)

	code, body := get(t, ts, "/search?q=computer")
	if code != 500 {
		t.Fatalf("search over a faulted engine: status = %d, want 500", code)
	}
	if !strings.Contains(body, "checksum mismatch") {
		t.Fatal("500 page does not name the engine fault")
	}
}
