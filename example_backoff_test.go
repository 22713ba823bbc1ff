package banks_test

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	banks "github.com/banksdb/banks"
)

// Example_backoff is a shed-aware client: it queries a BANKS front door
// (single-engine or the distributed /search endpoint) and honors its
// load-shedding protocol.
//
// The front door sheds excess load with 503 + a Retry-After header sized
// from the gate's live queue depth. A well-behaved client treats that as
// the server's own estimate of when capacity frees up: it sleeps the
// advertised interval (plus jitter, so a shed burst does not re-arrive as
// a synchronized retry storm), retries a bounded number of times, and
// backs off exponentially on top of the hint. 408 means the client's own
// deadline was too tight; retrying with the same deadline would fail the
// same way, so it is not retried here.
//
// The server here sheds the first request with 503 and Retry-After: 0,
// then passes every later one to the front door.
func Example_backoff() {
	db := banks.NewDatabase()
	if err := db.ExecScript(bibliographySchema + bibliographyData); err != nil {
		log.Fatal(err)
	}
	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}
	front := sys.ServeHandler(nil)
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		front.ServeHTTP(w, r)
	}))
	defer srv.Close()

	body, err := fetchWithBackoff(srv.URL+"/search?q=sunita+soumen", 5)
	if err != nil {
		log.Fatal(err)
	}
	page := string(body)
	fmt.Printf("attempts: %d\n", requests.Load())
	fmt.Printf("answer page names both authors: %v\n",
		strings.Contains(page, "Sunita Sarawagi") && strings.Contains(page, "Soumen Chakrabarti"))

	// Output:
	// attempts: 2
	// answer page names both authors: true
}

// fetchWithBackoff GETs url, retrying 503 responses according to the
// server's Retry-After hint with jittered exponential backoff.
func fetchWithBackoff(url string, retries int) ([]byte, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	backoff := time.Second // grows only when the server sends no hint
	for attempt := 1; ; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, body)
			}
			return body, nil
		}
		if attempt >= retries {
			return nil, fmt.Errorf("%s: still overloaded after %d attempts", url, attempt)
		}
		wait := retryAfter(resp, backoff)
		// Full jitter: a uniformly random slice of the advertised wait,
		// so clients shed in the same instant spread their retries out
		// instead of stampeding back together.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		log.Printf("shed (%s), retry %d/%d in %v", resp.Status, attempt, retries, wait)
		time.Sleep(wait)
		backoff *= 2
	}
}

// retryAfter reads the server's Retry-After hint (delta-seconds form),
// falling back to the client's own exponential backoff when absent.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}
