package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
)

// dblpSearchOptions mirrors eval.DefaultDBLPOptions at the public API
// level, so cluster queries and single-engine queries run under the
// same parameters.
func dblpSearchOptions() *banks.SearchOptions {
	return &banks.SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}}
}

// clusterClassResult is one (partition count, query class) measurement.
type clusterClassResult struct {
	Class            string  `json:"class"`
	Terms            string  `json:"terms"`
	SingleUs         float64 `json:"single_us"`
	DistributedUs    float64 `json:"distributed_us"`
	Answers          int     `json:"answers"`
	PartitionsRouted int     `json:"partitions_routed"`
	PartitionsPruned int     `json:"partitions_pruned"`
}

// clusterBenchPoint is the recorded artifact for one partition count.
type clusterBenchPoint struct {
	Partitions    int                  `json:"partitions"`
	SplitMs       float64              `json:"split_ms"`
	GoldenAtN1    bool                 `json:"golden_at_n1,omitempty"`
	PruneRate     float64              `json:"prune_rate"`
	ThroughputRPS float64              `json:"throughput_rps"`
	Classes       []clusterClassResult `json:"classes"`
}

// clusterBenchSummary is the BENCH_cluster.json payload.
type clusterBenchSummary struct {
	Scale  string              `json:"scale"`
	Points []clusterBenchPoint `json:"points"`
}

// runClusterBench produces the BENCH_cluster.json data: the §5.2 latency
// classes through the scatter-gather cluster at N = 1, 2, 4 partitions
// against the single-engine baseline, the broker's routing prune rate,
// and a short closed-loop throughput burst per partition count. It also
// asserts the correctness contracts on the way: N=1 answers are
// byte-identical to the single engine, and every N>1 answer matches a
// single-engine answer exactly (the partition-local completeness bound).
func runClusterBench(ctx context.Context, scale, jsonPath string) {
	fmt.Printf("== distributed serving bench (%s scale) ==\n", scale)
	dir, err := os.MkdirTemp("", "banks-clusterbench")
	check(err)
	defer os.RemoveAll(dir)

	bdb := banks.WrapDatabase(buildDataset(scale))
	single, err := banks.NewSystem(bdb, nil)
	check(err)
	defer single.Close()
	base := filepath.Join(dir, "dblp.store")
	check(single.Save(base))

	opts := dblpSearchOptions()
	// Single-engine baseline per class (same options as the distributed
	// runs, for a fair latency comparison), plus an untruncated reference
	// answer set per class for the N>1 containment check: a partition-
	// local answer may rank below the single engine's top-k cutoff, so
	// containment is only meaningful against the full answer list.
	baseline := make(map[string][]*banks.Answer)
	reference := make(map[string][]*banks.Answer)
	singleLat := make(map[string]time.Duration)
	refOpts := dblpSearchOptions()
	refOpts.TopK = 4096
	refOpts.HeapSize = 1 << 13
	for _, c := range latencyClasses {
		q := banks.Query{Text: strings.Join(c.terms, " "), Options: opts}
		const reps = 5
		start := time.Now()
		var res *banks.Results
		for i := 0; i < reps; i++ {
			res, err = single.Query(ctx, q)
			check(err)
		}
		singleLat[c.name] = time.Since(start) / reps
		baseline[c.name] = res.Answers
		full, err := single.Query(ctx, banks.Query{Text: strings.Join(c.terms, " "), Options: refOpts})
		check(err)
		reference[c.name] = full.Answers
	}

	sum := clusterBenchSummary{Scale: scale}
	for _, n := range []int{1, 2, 4} {
		splitStart := time.Now()
		paths := banks.ClusterPartitionPaths(filepath.Join(dir, fmt.Sprintf("n%d", n)), n)
		check(cluster.SplitStore(base, paths))
		splitMs := float64(time.Since(splitStart)) / 1e6
		cl, err := banks.OpenCluster(bdb, paths, nil)
		check(err)

		point := clusterBenchPoint{Partitions: n, SplitMs: splitMs, GoldenAtN1: n == 1}
		var routedTotal, prunableTotal int
		for _, c := range latencyClasses {
			q := banks.Query{Text: strings.Join(c.terms, " "), Options: opts}
			const reps = 5
			start := time.Now()
			var res *banks.Results
			for i := 0; i < reps; i++ {
				res, err = cl.Query(ctx, q)
				check(err)
			}
			dist := time.Since(start) / reps
			checkClusterAnswers(c.name, n, baseline[c.name], reference[c.name], res)
			routedTotal += res.Stats.PartitionsRouted
			prunableTotal += res.Stats.PartitionsTotal
			point.Classes = append(point.Classes, clusterClassResult{
				Class:            c.name,
				Terms:            strings.Join(c.terms, " "),
				SingleUs:         float64(singleLat[c.name]) / 1e3,
				DistributedUs:    float64(dist) / 1e3,
				Answers:          len(res.Answers),
				PartitionsRouted: res.Stats.PartitionsRouted,
				PartitionsPruned: res.Stats.PartitionsPruned,
			})
		}
		if prunableTotal > 0 {
			point.PruneRate = 1 - float64(routedTotal)/float64(prunableTotal)
		}

		// A short closed-loop burst for the throughput number.
		const burstDur = 2 * time.Second
		const workers = 8
		var reqs atomic.Int64
		deadline := time.Now().Add(burstDur)
		burstStart := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(deadline) && ctx.Err() == nil; i += workers {
					c := latencyClasses[i%len(latencyClasses)]
					_, err := cl.Query(ctx, banks.Query{
						Text: strings.Join(c.terms, " "), Options: opts})
					check(err)
					reqs.Add(1)
				}
			}(w)
		}
		wg.Wait()
		check(ctx.Err())
		point.ThroughputRPS = float64(reqs.Load()) / time.Since(burstStart).Seconds()

		fmt.Printf("\n-- N=%d partitions (split %0.1fms, prune rate %.2f, burst %.0f req/s) --\n",
			n, point.SplitMs, point.PruneRate, point.ThroughputRPS)
		for _, cr := range point.Classes {
			fmt.Printf("%-22s single %8.0fµs  distributed %8.0fµs  routed %d/%d\n",
				cr.Class, cr.SingleUs, cr.DistributedUs, cr.PartitionsRouted, n)
		}
		check(cl.Close())
		sum.Points = append(sum.Points, point)
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		check(err)
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		check(enc.Encode(sum))
		check(f.Close())
		fmt.Printf("\nsummary written to %s\n", jsonPath)
	}
}

// checkClusterAnswers enforces the distributed correctness contracts
// against the single engine: at N=1 the answer list must be
// byte-identical (scores, order, roots) to the same-options baseline. At
// N>1, for every root both sides report, the distributed score must
// never exceed the single engine's best for that root — equal when the
// best tree lies inside one partition, lower when only a weaker
// cut-local tree survives (the merge never invents or rescores trees; a
// distributed-only root is legal when its globally best tree collapses
// under the single-child-root reduction). The reference list is the
// untruncated single-engine answer set: a partition-local answer may
// rank below the single engine's top-k cutoff, so scores are checked
// against the full set.
func checkClusterAnswers(class string, n int, baseline, reference []*banks.Answer, res *banks.Results) {
	if n == 1 {
		if len(res.Answers) != len(baseline) {
			check(fmt.Errorf("cluster N=1 %q: %d answers vs single %d", class, len(res.Answers), len(baseline)))
		}
		for i, a := range res.Answers {
			b := baseline[i]
			if a.Score != b.Score || a.Root.Table != b.Root.Table || a.Root.RID != b.Root.RID {
				check(fmt.Errorf("cluster N=1 %q: rank %d differs from single engine", class, i+1))
			}
		}
		if res.Stats.PartitionLocalBound {
			check(fmt.Errorf("cluster N=1 %q: completeness bound reported on a single partition", class))
		}
		return
	}
	type key struct {
		table string
		rid   int64
	}
	best := make(map[key]float64, len(reference))
	for _, b := range reference {
		k := key{b.Root.Table, b.Root.RID}
		if s, ok := best[k]; !ok || b.Score > s {
			best[k] = b.Score
		}
	}
	for _, a := range res.Answers {
		if s, ok := best[key{a.Root.Table, a.Root.RID}]; ok && a.Score > s {
			check(fmt.Errorf("cluster N=%d %q: answer (%s,%d) scores %.6f above the single-engine best %.6f",
				n, class, a.Root.Table, a.Root.RID, a.Score, s))
		}
	}
	if !res.Stats.PartitionLocalBound {
		check(fmt.Errorf("cluster N=%d %q: completeness bound not reported", n, class))
	}
}

// runClusterLoadTest drives the cluster front door (Cluster.ServeHandler)
// under load: the store is split into partitions, opened as an in-process
// cluster, and the shared client driver runs the §5.2 query mix against
// it — admission control, per-class heavy gating and load shedding
// included — under the same -maxp99/-maxshed thresholds as the
// single-engine loadtest.
func runClusterLoadTest(ctx context.Context, cfg loadTestConfig, partitions int) {
	fmt.Printf("== distributed front-door loadtest (%s scale, %d partitions, %v) ==\n",
		cfg.Scale, partitions, cfg.Duration)
	dir, err := os.MkdirTemp("", "banks-clusterload")
	check(err)
	defer os.RemoveAll(dir)

	bdb := banks.WrapDatabase(buildDataset(cfg.Scale))
	builder, err := banks.NewSystem(bdb, nil)
	check(err)
	base := filepath.Join(dir, "dblp.store")
	check(builder.Save(base))
	check(builder.Close())
	paths := banks.ClusterPartitionPaths(base, partitions)
	check(cluster.SplitStore(base, paths))
	cl, err := banks.OpenCluster(bdb, paths, &banks.SystemOptions{StoreBudgetBytes: cfg.StoreBudget})
	check(err)
	defer cl.Close()

	// Split the admission capacity: heavy classes (multi-term — most of
	// the §5.2 mix) get their own gate so cheap single-term queries keep
	// flowing when the heavy pool saturates.
	heavy := cfg.MaxInFlight / 2
	if heavy == 0 {
		heavy = cfg.MaxInFlight
	}
	handler := cl.ServeHandler(&banks.ServeOptions{
		Search:            dblpSearchOptions(),
		MaxInFlight:       cfg.MaxInFlight,
		MaxQueue:          cfg.MaxQueue,
		QueueTimeout:      cfg.QueueTimeout,
		HeavyMaxInFlight:  heavy,
		HeavyMaxQueue:     cfg.MaxQueue,
		HeavyQueueTimeout: cfg.QueueTimeout,
		DefaultTimeout:    cfg.Timeout,
	})

	load := driveLoad(ctx, handler, cfg)
	check(ctx.Err())

	cs := cl.Stats()
	load.print()
	fmt.Printf("routing           %d queries, %d legs routed, %d pruned\n",
		cs.Queries, cs.PartitionsRouted, cs.PartitionsPruned)
	printPeakRSS()
	load.enforce(cfg)
}
