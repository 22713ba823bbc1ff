// Package cluster is the distributed serving subsystem: one store-backed
// engine per partition behind a common Partition interface (in-process
// or HTTP/JSON remote), a routing Broker that keeps per-partition
// term→document-frequency sketches and prunes partitions that cannot
// match a query, and a Coordinator that scatters a query to the routed
// partitions, gathers their wire-form answers, and merges them into the
// global top-k under the engine's canonical (table, rid) tie-break.
//
// Partitioning follows the (table, row-range) build sharding: every
// partition holds every table, with each table's rows split into
// contiguous chunks (split.go). Partition graphs keep the source's
// global score normalizers and prestige, so partition-local trees score
// bit-identically to the single-engine search.
//
// Completeness bound: a distributed query finds every answer whose
// connection tree lies entirely within one partition, with its exact
// single-engine score; trees crossing partition boundaries are not
// found (boundary-arc stitching is deferred). Consequently a reported
// root's score is a lower bound on the single engine's score for that
// root: when the globally best tree for a root crosses the cut, the
// partition reports its best cut-local tree instead — never a tree the
// full graph lacks, never a higher score. Stats.PartitionLocalBound
// reports the bound on every multi-partition query, alongside
// partitions routed/pruned.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/banksdb/banks/internal/core"
)

// Coordinator is the scatter-gather front: it owns the partitions, the
// routing broker, and the merge.
type Coordinator struct {
	parts  []Partition
	metas  []Meta
	broker *Broker
	tids   map[string]int32

	queries atomic.Int64 // distributed queries executed
	routed  atomic.Int64 // partition legs scattered
	pruned  atomic.Int64 // partition legs pruned by the broker
}

// NewCoordinator performs the handshake: fetches every partition's Meta,
// verifies the table sets agree (the cross-partition merge keys answers
// by table id), decodes the routing sketches, and returns the ready
// front. The caller keeps ownership of the partitions' lifetime unless
// it uses Close.
func NewCoordinator(ctx context.Context, parts []Partition) (*Coordinator, error) {
	if len(parts) == 0 {
		return nil, errors.New("cluster: no partitions")
	}
	c := &Coordinator{parts: parts, tids: make(map[string]int32)}
	sketches := make([]*Sketch, len(parts))
	for i, p := range parts {
		m, err := p.Meta(ctx)
		if err != nil {
			return nil, fmt.Errorf("cluster: partition %s handshake: %w", p.Name(), err)
		}
		if m.Name == "" {
			m.Name = p.Name()
		}
		if i == 0 {
			for t, name := range m.Tables {
				c.tids[strings.ToLower(name)] = int32(t)
			}
		} else if !sameTables(c.metas[0].Tables, m.Tables) {
			return nil, fmt.Errorf("cluster: partition %s tables %v disagree with %s tables %v",
				p.Name(), m.Tables, parts[0].Name(), c.metas[0].Tables)
		}
		if len(m.Sketch) > 0 {
			sk, err := DecodeSketch(m.Sketch)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition %s: %w", p.Name(), err)
			}
			sketches[i] = sk
		}
		c.metas = append(c.metas, m)
	}
	c.broker = NewBroker(sketches)
	return c, nil
}

func sameTables(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Partitions returns the handshake-time descriptions, by partition index.
func (c *Coordinator) Partitions() []Meta { return c.metas }

// TableIDs returns the cluster's table-name → table-id map (shared by
// every partition), for callers that merge wire answers themselves.
func (c *Coordinator) TableIDs() map[string]int32 { return c.tids }

// RoutingStats is the coordinator's cumulative routing telemetry.
type RoutingStats struct {
	Queries          int64 // distributed queries executed
	PartitionsRouted int64 // scatter legs sent
	PartitionsPruned int64 // scatter legs avoided by the broker
}

// Routing returns cumulative routing counters (safe for concurrent use).
func (c *Coordinator) Routing() RoutingStats {
	return RoutingStats{
		Queries:          c.queries.Load(),
		PartitionsRouted: c.routed.Load(),
		PartitionsPruned: c.pruned.Load(),
	}
}

// Query scatters req to the routed partitions, gathers, and merges. Any
// partition error fails the query (partial fan-in is not served as a
// complete answer). A qualified term whose qualifier is not one of the
// cluster's relations is rejected before any leg runs: partitions hold no
// rows, so they cannot check an attribute qualifier. The merged Stats
// carry the routing decision and, on multi-partition clusters, the
// partition-local completeness bound.
func (c *Coordinator) Query(ctx context.Context, req Request) (*Result, error) {
	clean := make([]string, 0, len(req.Terms))
	for _, t := range req.Terms {
		t = strings.TrimSpace(strings.ToLower(t))
		if t != "" {
			clean = append(clean, t)
		}
	}
	if len(clean) == 0 {
		return nil, errors.New("cluster: empty query")
	}
	if req.Qualified {
		// Partitions hold no rows, so a partition can check a relation
		// qualifier but not an attribute one: reject the latter here,
		// once, rather than let every leg silently match nothing.
		for _, t := range clean {
			if qual, _, ok := core.ParseQualifiedTerm(t); ok {
				if _, isTable := c.tids[qual]; !isTable {
					return nil, fmt.Errorf("cluster: qualified term %q: %q names no relation, and partitions hold no rows to check an attribute against", t, qual)
				}
			}
		}
	}

	scatterAll := req.Qualified || req.Prefix
	routed := c.broker.Route(clean, req.RequireAllTerms && !scatterAll, scatterAll)
	c.queries.Add(1)
	c.routed.Add(int64(len(routed)))
	c.pruned.Add(int64(len(c.parts) - len(routed)))

	results := make([]*Result, len(routed))
	errs := make([]error, len(routed))
	var wg sync.WaitGroup
	for i, p := range routed {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			results[i], errs[i] = c.parts[p].Query(ctx, req)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: scatter to %s: %w", c.parts[routed[i]].Name(), err)
		}
	}

	lists := make([][]Answer, len(results))
	stats := make([]Stats, len(results))
	for i, r := range results {
		lists[i] = r.Answers
		stats[i] = r.Stats
	}
	out := &Result{Answers: MergeAnswers(c.tids, lists, req.TopK)}
	merged := MergeStats(stats, clean)
	merged.PartitionsTotal = len(c.parts)
	merged.PartitionsRouted = len(routed)
	merged.PartitionsPruned = len(c.parts) - len(routed)
	merged.PartitionLocalBound = len(c.parts) > 1
	out.Stats = merged
	return out, nil
}

// Close closes every partition, returning the first error.
func (c *Coordinator) Close() error {
	var first error
	for _, p := range c.parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
