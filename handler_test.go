package banks

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPublicHandler(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	ts := httptest.NewServer(sys.ServeHandler(&ServeOptions{Search: &SearchOptions{ExcludedRootTables: []string{"writes"}}}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/search?q=sunita+soumen")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "Mining Surprising Patterns") {
		t.Error("search result missing the connecting paper")
	}

	resp2, err := ts.Client().Get(ts.URL + "/browse?table=author")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "Sarawagi") {
		t.Error("browse missing author data")
	}
}
