package cluster

// Splitting one engine into N partition engines. The cut is the same
// (table, row-range) sharding the parallel build uses: each table's node
// range is divided into N contiguous chunks and partition p takes chunk p
// of every table, so every partition holds every table (table ids stay
// identical across partitions) and each table's rows shard evenly.
//
// Each partition keeps the source graph's global score normalizers and
// per-node prestige (graph.Restrict), so any connection tree that lies
// entirely inside one partition scores bit-identically to the
// single-engine search. Arcs crossing the cut are dropped — the
// documented partition-local completeness bound; boundary-arc stitching
// is deferred.

import (
	"fmt"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/store"
)

// Assign computes the (table, row-range) partition assignment: node i of
// a table with count nodes goes to partition i*parts/count. The result
// maps every node of g to its partition.
func Assign(g *graph.Graph, parts int) []int {
	assign := make([]int, g.NumNodes())
	for t := int32(0); t < int32(g.NumTables()); t++ {
		lo, hi := g.NodesOfTable(t)
		count := int(hi - lo)
		for i := 0; i < count; i++ {
			assign[int(lo)+i] = i * parts / count
		}
	}
	return assign
}

// SplitEngine shards src into parts partition engines along the
// (table, row-range) cut. Each output engine carries the restricted
// graph (global normalizers preserved), the restricted keyword index
// (index.Materialize through the partition's renumbering; metadata is
// copied verbatim, as every table exists in every partition), the
// term-statistics sketch for the routing broker, and the source's WAL
// sequence.
func SplitEngine(src store.Engine, parts int) ([]store.Engine, error) {
	if src.Graph == nil || src.Index == nil {
		return nil, fmt.Errorf("cluster: SplitEngine requires a graph and an index")
	}
	if parts <= 0 {
		return nil, fmt.Errorf("cluster: cannot split into %d partitions", parts)
	}
	assign := Assign(src.Graph, parts)
	engines := make([]store.Engine, parts)
	for p := 0; p < parts; p++ {
		g, remap := graph.Restrict(src.Graph, func(n graph.NodeID) bool { return assign[n] == p })
		ix, err := index.Materialize(src.Index, remap, g.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("cluster: splitting index: %w", err)
		}
		sk, err := BuildSketch(ix)
		if err != nil {
			return nil, err
		}
		engines[p] = store.Engine{
			Graph:     g,
			Index:     ix,
			WALSeq:    src.WALSeq,
			TermStats: sk.Encode(),
		}
	}
	return engines, nil
}

// SplitStore opens the store at srcPath, shards it into len(outPaths)
// partition stores, and writes each atomically. It is the library behind
// cmd/banks-shard.
func SplitStore(srcPath string, outPaths []string) error {
	if len(outPaths) == 0 {
		return fmt.Errorf("cluster: no partition output paths")
	}
	st, err := store.Open(srcPath, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	seq, err := st.WALSeq()
	if err != nil {
		return fmt.Errorf("cluster: reading source WAL sequence: %w", err)
	}
	engines, err := SplitEngine(store.Engine{
		Graph:  st.Graph(),
		Index:  st.Index(),
		WALSeq: seq,
	}, len(outPaths))
	if err != nil {
		return err
	}
	if err := st.Err(); err != nil {
		return fmt.Errorf("cluster: reading source store: %w", err)
	}
	for p, eng := range engines {
		if err := store.WriteFile(outPaths[p], eng); err != nil {
			return fmt.Errorf("cluster: writing partition %d: %w", p, err)
		}
	}
	return nil
}

// PartitionPaths derives the conventional partition store paths for a
// base path: base.p0, base.p1, ...
func PartitionPaths(base string, parts int) []string {
	paths := make([]string, parts)
	for p := range paths {
		paths[p] = fmt.Sprintf("%s.p%d", base, p)
	}
	return paths
}
