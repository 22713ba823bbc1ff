package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/serve"
)

// loadTestConfig carries the -loadtest knobs from main.
type loadTestConfig struct {
	Scale    string
	Duration time.Duration
	// Workers is the closed-loop concurrency; with Rate > 0 the harness
	// runs open-loop instead, issuing requests on a fixed schedule
	// regardless of completions (the arrival process that actually
	// exposes queue collapse).
	Workers int
	Rate    int // requests/second, 0 = closed loop
	// Front-door shape under test.
	MaxInFlight  int
	MaxQueue     int
	QueueTimeout time.Duration
	// Timeout is the server-side deadline on every admitted search
	// (ServeOptions.DefaultTimeout); it is what keeps the client-observed
	// tail bounded once the system is pushed past saturation.
	Timeout time.Duration
	// StoreBudget, when > 0, serves from a segmented disk store with that
	// resident posting-block budget instead of a fully resident engine.
	StoreBudget int64
	// Churn enables background Apply batches and periodic Refresh while
	// the load runs; ApplyEvery is the Apply cadence (0: 20ms). Each
	// Apply republishes the engine snapshot with the warm read-side state
	// carried over (epoch-guarded match cache, touched terms
	// invalidated), so even an aggressive cadence must not reset
	// serving state — that is what MinHitRate checks.
	Churn      bool
	ApplyEvery time.Duration
	// CI thresholds: a non-zero MaxP99, non-negative MaxShedRate, or
	// positive MinHitRate that the run violates exits non-zero.
	// MinHitRate is checked against the steady-state match-cache hit
	// rate (measured after the first quarter of the run, so cold-start
	// misses don't count) — the regression signal for warm-state
	// carryover: without it, churn Applies reset the cache every 20ms
	// and the rate collapses.
	MaxP99      time.Duration
	MaxShedRate float64
	MinHitRate  float64
	// JSONPath, when set, writes the summary there (BENCH_serve.json).
	JSONPath string
}

// loadTestSummary is the recorded artifact of one run.
type loadTestSummary struct {
	Scale        string  `json:"scale"`
	Mode         string  `json:"mode"` // "closed" or "open"
	Workers      int     `json:"workers"`
	RatePerSec   int     `json:"rate_per_sec,omitempty"`
	DurationS    float64 `json:"duration_s"`
	MaxInFlight  int     `json:"max_in_flight"`
	MaxQueue     int     `json:"max_queue"`
	TimeoutMs    float64 `json:"server_timeout_ms,omitempty"`
	StoreBudget  int64   `json:"store_budget_bytes,omitempty"`
	Churn        bool    `json:"churn"`
	Requests     int64   `json:"requests"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	Throughput   float64 `json:"throughput_rps"`
	ShedRate     float64 `json:"shed_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	ApplyBatches int64   `json:"apply_batches,omitempty"`
	Refreshes    int64   `json:"refreshes,omitempty"`
	// Steady-state match-cache behaviour, measured from the end of the
	// warmup quarter to the end of the run.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	HitRate       float64 `json:"cache_hit_rate"`
	WarmPublishes int64   `json:"warm_publishes,omitempty"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes,omitempty"`
}

// runLoadTest drives the production front door (System.ServeHandler) in
// process: a configurable query mix at either closed-loop concurrency or
// an open-loop arrival rate, optionally over a memory-budgeted disk store
// and under background Apply/Refresh churn. It reports throughput,
// latency quantiles, shed rate and peak RSS — the BENCH_serve.json data —
// and enforces the CI thresholds.
func runLoadTest(ctx context.Context, cfg loadTestConfig) {
	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	fmt.Printf("== front-door loadtest (%s scale, %s loop, %v) ==\n",
		cfg.Scale, mode, cfg.Duration)

	dir, err := os.MkdirTemp("", "banks-loadtest")
	check(err)
	defer os.RemoveAll(dir)

	sys := openLoadTestSystem(dir, cfg)
	defer sys.Close()

	handler := sys.ServeHandler(&banks.ServeOptions{
		Search:         mutateQueryOpts(),
		MaxInFlight:    cfg.MaxInFlight,
		MaxQueue:       cfg.MaxQueue,
		QueueTimeout:   cfg.QueueTimeout,
		DefaultTimeout: cfg.Timeout,
	})

	// Background churn: small Apply batches continuously, a full Refresh
	// midway — the conditions a live deployment serves under.
	churnCtx, stopChurn := context.WithCancel(ctx)
	var churnWG sync.WaitGroup
	var applies, refreshes atomic.Int64
	applyEvery := cfg.ApplyEvery
	if applyEvery <= 0 {
		applyEvery = 20 * time.Millisecond
	}
	if cfg.Churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; churnCtx.Err() == nil; i++ {
				batch := []banks.Mutation{
					banks.Insert("Author", map[string]interface{}{
						"AuthorId": fmt.Sprintf("LoadA%d", i), "AuthorName": fmt.Sprintf("load churn %d", i),
					}),
					banks.Insert("Writes", map[string]interface{}{
						"AuthorId": fmt.Sprintf("LoadA%d", i), "PaperId": datagen.PaperChakrabartiSD98,
					}),
				}
				if _, err := sys.Apply(churnCtx, batch); err != nil {
					if churnCtx.Err() != nil {
						return
					}
					check(err)
				}
				applies.Add(1)
				select {
				case <-churnCtx.Done():
					return
				case <-time.After(applyEvery):
				}
			}
		}()
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			select {
			case <-churnCtx.Done():
				return
			case <-time.After(cfg.Duration / 2):
			}
			if err := sys.Refresh(); err != nil && churnCtx.Err() == nil {
				check(err)
			}
			refreshes.Add(1)
		}()
	}

	// Snapshot the cache counters after the warmup quarter so the
	// steady-state hit rate excludes the inevitable cold-start misses.
	var warmBase banks.CacheStats
	warmBaseDone := make(chan struct{})
	go func() {
		defer close(warmBaseDone)
		select {
		case <-ctx.Done():
		case <-time.After(cfg.Duration / 4):
		}
		warmBase = sys.CacheStats()
	}()

	load := driveLoad(ctx, handler, cfg)
	stopChurn()
	churnWG.Wait()
	check(ctx.Err())
	<-warmBaseDone
	cs := sys.CacheStats()
	// Warm publishes carry the cache (and its counters) forward, but a
	// mid-run Refresh rebuilds the engine around a fresh cache — node IDs
	// renumber — which resets the counters below the warmup baseline. In
	// that case fall back to the post-reset window: it still starts from a
	// HotKeys-warmed cache, so it remains a steady-state measurement.
	steadyHits, steadyMisses := cs.Hits-warmBase.Hits, cs.Misses-warmBase.Misses
	if steadyHits < 0 || steadyMisses < 0 {
		steadyHits, steadyMisses = cs.Hits, cs.Misses
	}

	sum := loadTestSummary{
		Scale:         cfg.Scale,
		Mode:          mode,
		Workers:       cfg.Workers,
		RatePerSec:    cfg.Rate,
		DurationS:     load.elapsed.Seconds(),
		MaxInFlight:   cfg.MaxInFlight,
		MaxQueue:      cfg.MaxQueue,
		TimeoutMs:     float64(cfg.Timeout) / 1e6,
		StoreBudget:   cfg.StoreBudget,
		Churn:         cfg.Churn,
		Requests:      load.requests,
		OK:            load.ok,
		Shed:          load.shed,
		Errors:        load.errs,
		Throughput:    load.throughput(),
		ShedRate:      load.shedRate(),
		P50Ms:         float64(load.hist.Quantile(0.50)) / 1e6,
		P99Ms:         float64(load.hist.Quantile(0.99)) / 1e6,
		MaxMs:         float64(load.hist.Max()) / 1e6,
		ApplyBatches:  applies.Load(),
		Refreshes:     refreshes.Load(),
		CacheHits:     steadyHits,
		CacheMisses:   steadyMisses,
		WarmPublishes: cs.WarmPublishes,
		PeakRSSBytes:  serve.PeakRSSBytes(),
	}
	if lookups := sum.CacheHits + sum.CacheMisses; lookups > 0 {
		sum.HitRate = float64(sum.CacheHits) / float64(lookups)
	}

	load.print()
	if cfg.Churn {
		fmt.Printf("churn             %d Apply batches, %d Refresh, %d warm publishes\n",
			sum.ApplyBatches, sum.Refreshes, sum.WarmPublishes)
	}
	fmt.Printf("match cache       steady-state hit rate %.3f (%d hits, %d misses)\n",
		sum.HitRate, sum.CacheHits, sum.CacheMisses)
	printPeakRSS()

	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		check(err)
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		check(enc.Encode(sum))
		check(f.Close())
		fmt.Printf("summary           written to %s\n", cfg.JSONPath)
	}

	load.enforce(cfg)
	if cfg.MinHitRate > 0 {
		if sum.CacheHits+sum.CacheMisses == 0 {
			check(fmt.Errorf("loadtest: -minhitrate %.3f set but no cache lookups observed", cfg.MinHitRate))
		}
		if sum.HitRate < cfg.MinHitRate {
			check(fmt.Errorf("loadtest: steady-state cache hit rate %.3f below limit %.3f",
				sum.HitRate, cfg.MinHitRate))
		}
	}
}

// loadResult is what the client driver observed.
type loadResult struct {
	hist                     *serve.Histogram
	requests, ok, shed, errs int64
	elapsed                  time.Duration
}

func (r loadResult) throughput() float64 { return float64(r.requests) / r.elapsed.Seconds() }

func (r loadResult) shedRate() float64 {
	if r.requests == 0 {
		return 0
	}
	return float64(r.shed) / float64(r.requests)
}

// driveLoad is the one client driver of both loadtests: it needs nothing
// of the backend but its front door. Each request is one GET /search of
// the §5.2 query mix against handler, latency recorded in a client-side
// histogram, the status code classified: 503 is a shed (or a server
// timeout) — the contract under overload — and anything else but 200 is an
// error. With cfg.Rate > 0 the loop is open (requests depart on schedule
// whether or not earlier ones finished — the arrival process that exposes
// queue collapse); otherwise cfg.Workers clients each issue their next
// request when the previous one completes.
func driveLoad(ctx context.Context, handler http.Handler, cfg loadTestConfig) loadResult {
	hist := serve.NewHistogram()
	var requests, ok, shed, errs atomic.Int64
	oneRequest := func(i int) {
		c := latencyClasses[i%len(latencyClasses)]
		req := httptest.NewRequest("GET", "/search?q="+url.QueryEscape(strings.Join(c.terms, " ")), nil)
		req = req.WithContext(ctx)
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		hist.Observe(time.Since(start))
		requests.Add(1)
		switch rec.Code {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusServiceUnavailable:
			shed.Add(1)
		default:
			errs.Add(1)
		}
	}

	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		ticker := time.NewTicker(time.Second / time.Duration(cfg.Rate))
		for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
			<-ticker.C
			wg.Add(1)
			go func(i int) { defer wg.Done(); oneRequest(i) }(i)
		}
		ticker.Stop()
	} else {
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(deadline) && ctx.Err() == nil; i += cfg.Workers {
					oneRequest(i)
				}
			}(w)
		}
	}
	wg.Wait()
	return loadResult{
		hist: hist, requests: requests.Load(), ok: ok.Load(), shed: shed.Load(), errs: errs.Load(),
		elapsed: time.Since(start),
	}
}

func (r loadResult) print() {
	fmt.Printf("requests          %d in %v (%.0f req/s)\n", r.requests, r.elapsed.Round(time.Millisecond), r.throughput())
	fmt.Printf("outcomes          %d ok, %d shed (%.1f%%), %d errors\n", r.ok, r.shed, 100*r.shedRate(), r.errs)
	fmt.Printf("latency           p50 %.2fms  p99 %.2fms  max %.2fms\n",
		float64(r.hist.Quantile(0.50))/1e6, float64(r.hist.Quantile(0.99))/1e6, float64(r.hist.Max())/1e6)
}

// enforce applies the CI thresholds every loadtest shares: no errored
// request, and the -maxp99 / -maxshed limits when set.
func (r loadResult) enforce(cfg loadTestConfig) {
	if r.errs > 0 {
		check(fmt.Errorf("loadtest: %d requests errored", r.errs))
	}
	if p99 := r.hist.Quantile(0.99); cfg.MaxP99 > 0 && p99 > cfg.MaxP99 {
		check(fmt.Errorf("loadtest: p99 %.2fms exceeds limit %v", float64(p99)/1e6, cfg.MaxP99))
	}
	if cfg.MaxShedRate >= 0 && r.shedRate() > cfg.MaxShedRate {
		check(fmt.Errorf("loadtest: shed rate %.3f exceeds limit %.3f", r.shedRate(), cfg.MaxShedRate))
	}
}

// openLoadTestSystem builds the system under test: a fully resident
// engine by default; with a store budget, the engine is built, persisted,
// and reopened from the segmented store so posting blocks page in and out
// under the byte budget while the load runs. The WAL is always attached
// so churn can Apply.
func openLoadTestSystem(dir string, cfg loadTestConfig) *banks.System {
	bdb := banks.WrapDatabase(buildDataset(cfg.Scale))
	wal := filepath.Join(dir, "load.wal")
	if cfg.StoreBudget <= 0 {
		sys, err := banks.NewSystem(bdb, &banks.SystemOptions{WALPath: wal})
		check(err)
		return sys
	}
	path := filepath.Join(dir, "load.store")
	builder, err := banks.NewSystem(bdb, nil)
	check(err)
	check(builder.Save(path))
	check(builder.Close())
	sys, err := banks.OpenSystem(path, bdb, &banks.SystemOptions{
		StoreBudgetBytes: cfg.StoreBudget,
		WALPath:          wal,
	})
	check(err)
	fmt.Printf("store-backed      %s (budget %d bytes)\n", path, cfg.StoreBudget)
	return sys
}
