package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/datagen"
)

// mutateQueryOpts matches eval.DefaultDBLPOptions (link relations cannot
// serve as answer roots), so the latencies here compare against the other
// eval legs.
func mutateQueryOpts() *banks.SearchOptions {
	return &banks.SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}}
}

// runMutate produces the BENCH_wal.json data: per-Apply latency for live
// mutation batches journaled through the WAL, the full Refresh each Apply
// replaces, query latency while mutations churn, overlay-vs-rebuild
// result parity after the churn, and the post-Compact steady state.
func runMutate(ctx context.Context, scale string, n int) {
	fmt.Printf("== live mutations: Apply vs Refresh (%s scale, %d batches) ==\n", scale, n)

	dir, err := os.MkdirTemp("", "banks-mutate")
	check(err)
	defer os.RemoveAll(dir)

	bdb := banks.WrapDatabase(buildDataset(scale))
	sys, err := banks.NewSystem(bdb, &banks.SystemOptions{WALPath: filepath.Join(dir, "live.wal")})
	check(err)
	defer sys.Close()

	// The baseline Apply must beat: a full Refresh (SQL → graph → index
	// rebuild), which was the only way to surface a row change before the
	// WAL-backed overlay existed.
	refresh := time.Duration(0)
	for i := 0; i < 3; i++ {
		check(ctx.Err())
		start := time.Now()
		check(sys.Refresh())
		if el := time.Since(start); refresh == 0 || el < refresh {
			refresh = el
		}
	}
	fmt.Printf("full Refresh       %v (best of 3; the pre-WAL cost of any mutation)\n", refresh)

	// Churn: n small batches in the shape of a live bibliography feed —
	// new authors with their Writes link, new papers, new citations, and
	// title fix-ups of rows this run inserted.
	words := []string{"surprising", "mining", "transaction", "recovery", "concepts", "patterns"}
	var applied []time.Duration
	var underChurn []time.Duration
	var paperRID int64 = -1
	queryEvery := n / 8
	if queryEvery == 0 {
		queryEvery = 1
	}
	for i := 0; i < n; i++ {
		check(ctx.Err())
		var batch []banks.Mutation
		switch i % 4 {
		case 0:
			aid := fmt.Sprintf("EvalA%d", i)
			batch = []banks.Mutation{
				banks.Insert("Author", map[string]interface{}{
					"AuthorId": aid, "AuthorName": "Churn " + words[i%len(words)],
				}),
				banks.Insert("Writes", map[string]interface{}{
					"AuthorId": aid, "PaperId": datagen.PaperChakrabartiSD98,
				}),
			}
		case 1:
			batch = []banks.Mutation{banks.Insert("Paper", map[string]interface{}{
				"PaperId":   fmt.Sprintf("EvalP%d", i),
				"PaperName": fmt.Sprintf("%s %s study %d", words[i%len(words)], words[(i+1)%len(words)], i),
				"Year":      2002,
			})}
		case 2:
			batch = []banks.Mutation{banks.Insert("Cites", map[string]interface{}{
				"Citing": datagen.PaperChakrabartiSD98, "Cited": datagen.PaperGrayTransaction,
			})}
		case 3:
			if paperRID >= 0 {
				batch = []banks.Mutation{banks.Update("Paper", paperRID, map[string]interface{}{
					"PaperName": fmt.Sprintf("revised %s survey %d", words[i%len(words)], i),
				})}
			} else {
				batch = []banks.Mutation{banks.Insert("Paper", map[string]interface{}{
					"PaperId": fmt.Sprintf("EvalP%d", i), "PaperName": "placeholder", "Year": 2001,
				})}
			}
		}
		start := time.Now()
		res, err := sys.Apply(ctx, batch)
		check(err)
		applied = append(applied, time.Since(start))
		if i%4 != 2 && i%4 != 0 && len(res.RIDs) > 0 {
			paperRID = res.RIDs[0]
		}
		if i%queryEvery == 0 {
			c := latencyClasses[(i/queryEvery)%len(latencyClasses)]
			qs := time.Now()
			_, err := sys.Query(ctx, banks.Query{Text: strings.Join(c.terms, " "), Options: mutateQueryOpts()})
			check(err)
			underChurn = append(underChurn, time.Since(qs))
		}
	}
	sort.Slice(applied, func(i, j int) bool { return applied[i] < applied[j] })
	p50 := applied[len(applied)/2]
	p95 := applied[len(applied)*95/100]
	fmt.Printf("Apply latency      p50 %v, p95 %v over %d batches (%d rows pending)\n",
		p50, p95, n, sys.PendingMutations())
	fmt.Printf("Apply vs Refresh   %.0fx cheaper at p50\n", float64(refresh)/float64(p50))
	var churnSum time.Duration
	for _, d := range underChurn {
		churnSum += d
	}
	fmt.Printf("query under churn  %v avg (%d queries interleaved with the batches)\n",
		churnSum/time.Duration(len(underChurn)), len(underChurn))

	// Parity: the overlay engine must answer exactly like a from-scratch
	// rebuild over the mutated database.
	ref, err := banks.NewSystem(bdb, nil)
	check(err)
	defer ref.Close()
	comparePublic(ctx, sys, ref, "overlay vs rebuild")

	// Compact runs its rebuild off-lock and folds concurrent mutations in
	// at the end, so Apply must keep its sub-millisecond latency while the
	// compaction is in flight. Hammer Apply from a second goroutine and
	// record the worst stall — before the off-lock rebuild this was the
	// full compaction time (~1.7s at paper scale). The stall batches are
	// isolated author rows (no Writes link, no query-term overlap) so the
	// parity check against the pre-Compact reference still holds.
	stallCtx, stopStall := context.WithCancel(ctx)
	var stallWG sync.WaitGroup
	var worstStall atomic.Int64
	var duringCompact atomic.Int64
	stallWG.Add(1)
	go func() {
		defer stallWG.Done()
		for i := 0; stallCtx.Err() == nil; i++ {
			batch := []banks.Mutation{banks.Insert("Author", map[string]interface{}{
				"AuthorId": fmt.Sprintf("StallA%d", i), "AuthorName": fmt.Sprintf("offstage %d", i),
			})}
			s := time.Now()
			if _, err := sys.Apply(stallCtx, batch); err != nil {
				if stallCtx.Err() != nil {
					return
				}
				check(err)
			}
			if d := int64(time.Since(s)); d > worstStall.Load() {
				worstStall.Store(d)
			}
			duringCompact.Add(1)
		}
	}()
	start := time.Now()
	check(sys.Compact())
	compactDur := time.Since(start)
	stopStall()
	stallWG.Wait()
	fmt.Printf("Compact            %v (%d pending after: mutations folded in mid-compaction)\n",
		compactDur, sys.PendingMutations())
	fmt.Printf("Apply during Compact  %d batches, worst stall %v\n",
		duringCompact.Load(), time.Duration(worstStall.Load()))
	comparePublic(ctx, sys, ref, "compacted vs rebuild")

	// A quiet second Compact folds the stall batches and truncates the WAL.
	start = time.Now()
	check(sys.Compact())
	fmt.Printf("quiet Compact      %v (WAL truncated, %d pending after)\n",
		time.Since(start), sys.PendingMutations())
	comparePublic(ctx, sys, ref, "quiet-compacted vs rebuild")

	fmt.Println("\n-- steady state after Compact --")
	for _, c := range latencyClasses {
		const reps = 5
		start := time.Now()
		var count int
		for i := 0; i < reps; i++ {
			res, err := sys.Query(ctx, banks.Query{Text: strings.Join(c.terms, " "), Options: mutateQueryOpts()})
			check(err)
			count = len(res.Answers)
		}
		fmt.Printf("%-22s %8v/query  (%d answers)\n", c.name, time.Since(start)/reps, count)
	}
	printPeakRSS()
}

// comparePublic checks that both systems rank the latency-class queries
// identically: same answer count and same score sequence. The final tie
// group of a full top-k list is skipped — which of the equally-scored
// trees makes the cut at the truncation point is snapshot-dependent.
func comparePublic(ctx context.Context, a, b *banks.System, label string) {
	for _, c := range latencyClasses {
		q := banks.Query{Text: strings.Join(c.terms, " "), Options: mutateQueryOpts()}
		ra, err := a.Query(ctx, q)
		check(err)
		rb, err := b.Query(ctx, q)
		check(err)
		sa, sb := scoreSig(ra), scoreSig(rb)
		if len(sa) != len(sb) {
			check(fmt.Errorf("%s: %q answer count %d vs %d", label, c.name, len(sa), len(sb)))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				check(fmt.Errorf("%s: %q rank %d score %s vs %s", label, c.name, i+1, sa[i], sb[i]))
			}
		}
	}
	fmt.Printf("parity             ok: %s (%d query classes, scores identical)\n",
		label, len(latencyClasses))
}

// scoreSig renders the rounded score sequence, dropping the trailing tie
// group when the list is full (default TopK 10).
func scoreSig(r *banks.Results) []string {
	var sig []string
	for _, a := range r.Answers {
		sig = append(sig, fmt.Sprintf("%.9f", a.Score))
	}
	const topK = 10
	if len(sig) == topK {
		last := sig[len(sig)-1]
		for len(sig) > 0 && sig[len(sig)-1] == last {
			sig = sig[:len(sig)-1]
		}
	}
	return sig
}
