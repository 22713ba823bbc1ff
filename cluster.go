package banks

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/web"
)

// Cluster is the distributed serving front door: a set of partition
// engines (in-process stores opened from banks-shard output, or remote
// processes), a term-statistics routing broker that prunes partitions
// which cannot match a query, and the deterministic top-k merge.
//
// Completeness bound: a distributed query returns every answer whose
// connection tree lies entirely inside one partition, scored exactly as
// the single-engine search scores it; trees crossing partition
// boundaries are not found, so a root whose globally best tree crosses
// the cut surfaces with its best partition-local tree (a lower bound on
// its single-engine score) or not at all.
// Results.Stats.PartitionLocalBound reports the bound whenever it
// applies (more than one partition).
//
// The Cluster renders answers against db, which must hold the same rows
// every partition store was built from. A Cluster is safe for
// concurrent use.
type Cluster struct {
	db     *Database
	coord  *cluster.Coordinator
	closed atomic.Bool
}

// OpenCluster opens the partition stores at paths (the output of
// banks-shard, conventionally base.p0 … base.pN-1; see
// ClusterPartitionPaths) as in-process partitions over db and performs
// the cluster handshake. No system option applies to partitioned serving;
// opts is ignored.
func OpenCluster(db *Database, paths []string, opts *SystemOptions) (*Cluster, error) {
	if db == nil {
		return nil, fmt.Errorf("banks: OpenCluster requires a database")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("banks: OpenCluster requires at least one partition store")
	}
	parts := make([]cluster.Partition, 0, len(paths))
	fail := func(err error) (*Cluster, error) {
		for _, p := range parts {
			p.Close()
		}
		return nil, err
	}
	for i, path := range paths {
		p, err := cluster.OpenLocal(fmt.Sprintf("p%d", i), path, 0)
		if err != nil {
			return fail(fmt.Errorf("banks: opening partition %d: %w", i, err))
		}
		parts = append(parts, p)
	}
	return newCluster(db, parts)
}

// OpenClusterRemotes connects to partition processes serving
// cluster.Handler (banks-shard -serve) at urls and performs the cluster
// handshake. The remote processes own the partition stores; Close only
// drops the connections.
func OpenClusterRemotes(db *Database, urls []string) (*Cluster, error) {
	if db == nil {
		return nil, fmt.Errorf("banks: OpenClusterRemotes requires a database")
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("banks: OpenClusterRemotes requires at least one partition URL")
	}
	parts := make([]cluster.Partition, 0, len(urls))
	for i, u := range urls {
		parts = append(parts, cluster.NewRemote(fmt.Sprintf("p%d", i), u, nil))
	}
	return newCluster(db, parts)
}

func newCluster(db *Database, parts []cluster.Partition) (*Cluster, error) {
	coord, err := cluster.NewCoordinator(context.Background(), parts)
	if err != nil {
		for _, p := range parts {
			p.Close()
		}
		return nil, fmt.Errorf("banks: %w", err)
	}
	return &Cluster{db: db, coord: coord}, nil
}

// ClusterPartitionPaths derives the conventional partition store paths
// banks-shard writes for a base store path: base.p0, base.p1, …
func ClusterPartitionPaths(base string, parts int) []string {
	return cluster.PartitionPaths(base, parts)
}

// Partitions returns the number of partitions behind the cluster.
func (c *Cluster) Partitions() int { return len(c.coord.Partitions()) }

// ClusterStats is the cluster front door's cumulative routing telemetry.
type ClusterStats struct {
	// Partitions is the partition count.
	Partitions int
	// Queries counts distributed queries executed.
	Queries int64
	// PartitionsRouted counts scatter legs sent to partitions.
	PartitionsRouted int64
	// PartitionsPruned counts scatter legs the term-statistics broker
	// proved unnecessary — the routing win.
	PartitionsPruned int64
}

// Stats returns the cluster's cumulative routing counters.
func (c *Cluster) Stats() ClusterStats {
	r := c.coord.Routing()
	return ClusterStats{
		Partitions:       len(c.coord.Partitions()),
		Queries:          r.Queries,
		PartitionsRouted: r.PartitionsRouted,
		PartitionsPruned: r.PartitionsPruned,
	}
}

// Query answers a keyword query by scatter-gather over the partitions:
// the broker routes to the partitions whose term statistics can match,
// each routed partition runs the paper's backward expanding search
// locally, and the results merge into the global top-k under the
// engine's canonical (table, rid) tie-break. Grouping by shape and the
// per-query Budget work as on a System. Partitions hold no rows, so a
// Qualified term may name a relation ("author:sunita") but not an
// attribute: a qualifier that is not one of the cluster's relations is
// rejected with an error naming the term.
func (c *Cluster) Query(ctx context.Context, q Query) (*Results, error) {
	return run(ctx, c.db.inner, c.search, q, nil)
}

// search is Cluster's backend: the coordinator's scatter-gather. A
// cluster merges the legs' lists before any answer is final, so it never
// streams; it is called with a nil cb.
func (c *Cluster) search(ctx context.Context, req *cluster.Request, _ func(*cluster.Answer) bool) (*cluster.Result, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	return c.coord.Query(ctx, *req)
}

// ServeHandler returns the same front door System.ServeHandler does —
// the HTML search and browsing UI, admission control with per-class
// heavy-query gating, load shedding with Retry-After, server-side
// deadlines, the identical status mapping (a failed partition leg is a
// 500) — over the cluster: /search scatters to the partitions and renders
// the merged answers against the cluster's database, and /debug +
// /debug/vars carry per-partition gauges and the broker's routing
// counters. Its latency histograms are labelled "distributed".
func (c *Cluster) ServeHandler(opts *ServeOptions) http.Handler {
	if opts == nil {
		opts = &ServeOptions{}
	}
	return newFrontDoor(opts, web.Config{
		DB:       c.db.inner,
		Search:   doorSearch(c.search, opts.Search),
		Strategy: "distributed",
	}, c.bindClusterGauges)
}

// bindClusterGauges registers the routing counters and one gauge set per
// partition (size, sketch presence) on the metrics registry.
func (c *Cluster) bindClusterGauges(m *serve.Metrics) {
	reg := m.Registry()
	reg.Gauge("cluster_partitions", func() int64 { return int64(c.Partitions()) })
	reg.Gauge("cluster_queries_total", func() int64 { return c.Stats().Queries })
	reg.Gauge("cluster_partitions_routed_total", func() int64 { return c.Stats().PartitionsRouted })
	reg.Gauge("cluster_partitions_pruned_total", func() int64 { return c.Stats().PartitionsPruned })
	for i, meta := range c.coord.Partitions() {
		meta := meta
		prefix := fmt.Sprintf("partition_%d", i)
		reg.Gauge(prefix+"_nodes", func() int64 { return int64(meta.Nodes) })
		reg.Gauge(prefix+"_arcs", func() int64 { return int64(meta.Arcs) })
		reg.Gauge(prefix+"_sketch_bytes", func() int64 { return int64(len(meta.Sketch)) })
	}
}

// PartitionHandler exposes one partition store over HTTP for a remote
// cluster: open it in a partition process and mount the returned
// handler, then point OpenClusterRemotes (or banks-shard's coordinator
// mode) at it.
func PartitionHandler(path string) (http.Handler, func() error, error) {
	p, err := cluster.OpenLocal("partition", path, 0)
	if err != nil {
		return nil, nil, err
	}
	return cluster.Handler(p), p.Close, nil
}

// Close closes every partition. In-flight queries on in-process
// partitions finish against the store they pinned.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.coord.Close()
}
