package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/sqldb"
)

// The fixed environment. It is the same on both sides of every later
// comparison and is recorded in BENCHMARK.json and the README; none of
// it is a per-workload tunable.
const (
	// One closed-loop client (churn-names adds the writer beside it): with
	// two, every metric followed how much of the box's second CPU the host
	// left it (README, "one client").
	minCPUs        = 2 // one for the client's request, one for the writer, the scatter legs and the collector
	maxInFlight    = 4
	maxQueue       = 8
	defaultTimeout = 5 * time.Second
	partitions     = 4
	setupReps      = 7                      // at least this many set-ups are timed,
	setupFor       = 500 * time.Millisecond // and as many more as fit in this long (runConfig.SetupFor)
	memoryLimit    = 4 << 30
	minMemAvail    = 6 << 30
	warmup         = 3 * time.Second
)

func searchOptions() *banks.SearchOptions {
	return &banks.SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}}
}

func serveOptions() *banks.ServeOptions {
	return &banks.ServeOptions{
		Search:         searchOptions(),
		MaxInFlight:    maxInFlight,
		MaxQueue:       maxQueue,
		DefaultTimeout: defaultTimeout,
	}
}

// workload is one named traffic mix against one system configuration.
type workload struct {
	Name    string
	Mix     mix
	List    int  // length of the query list the clients walk
	Churn   bool // durable config, a writer and a compactor beside one reader
	Cluster bool // served by a 4-partition Cluster instead of a System
	Verify  int  // distinct queries the correctness pass checks (scatter-names: more, so that recall is steady)
	Ladder  int  // queries the traced run replays layer by layer
}

// scatter-names walks the same list as read-names (same mix, length and
// seed), so scatter overhead and lost answers read off directly.
var workloads = []workload{
	{Name: "read-names", Mix: mixNames, List: 2000, Verify: 100, Ladder: 300},
	{Name: "read-far", Mix: mixFar, List: 400, Verify: 25, Ladder: 40},
	{Name: "churn-names", Mix: mixNames, List: 2000, Churn: true, Verify: 100, Ladder: 300},
	{Name: "scatter-names", Mix: mixNames, List: 2000, Cluster: true, Verify: 250, Ladder: 300},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildDB generates the dataset. Its seed is fixed by the config: the
// benchmark's -seed drives only query and mutation generation.
func buildDB(cfg datagen.DBLPConfig) (*banks.Database, time.Duration, error) {
	start := time.Now()
	inner, err := datagen.BuildDBLP(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("datagen: %w", err)
	}
	return banks.WrapDatabase(inner), time.Since(start), nil
}

// sut is the system under test, ready to serve.
type sut struct {
	w       workload
	db      *banks.Database
	sys     *banks.System  // the engine under test; on scatter-names the single engine the stores were split from
	cluster *banks.Cluster // scatter-names only
	handler http.Handler
	opts    *banks.SystemOptions // how sys was made (churn-names: WAL + store paths)
	parts   []string             // scatter-names: partition store paths
	setup   time.Duration        // median time of the call that makes the handler ready
	split   time.Duration        // scatter-names: cluster.SplitStore
}

func (s *sut) close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.sys != nil {
		s.sys.Close()
	}
}

// median returns the middle of ds, 0 for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// makePartitions saves sys and splits the store into the partition
// stores a Cluster opens: fixture work, timed apart from set-up.
func makePartitions(sys *banks.System, dir string) (paths []string, split time.Duration, err error) {
	base := filepath.Join(dir, "base.bstore")
	if err := sys.Save(base); err != nil {
		return nil, 0, err
	}
	paths = banks.ClusterPartitionPaths(base, partitions)
	start := time.Now()
	if err := cluster.SplitStore(base, paths); err != nil {
		return nil, 0, fmt.Errorf("splitting store: %w", err)
	}
	return paths, time.Since(start), nil
}

// timeSetUp calls once, which makes a system ready to serve and closes
// the one it made before, at least setupReps times and for at least
// minFor, and returns the median time of a call. A millisecond set-up
// (OpenCluster) is repeated a few hundred times, without which its median
// moved by a third between two sets of ten runs.
func timeSetUp(minFor time.Duration, once func() error) (time.Duration, error) {
	var times []time.Duration
	for begin := time.Now(); len(times) < setupReps || time.Since(begin) < minFor; {
		start := time.Now()
		if err := once(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	return median(times), nil
}

// openCluster opens the partition stores repeatedly (timeSetUp) and keeps
// the last Cluster; it returns the median open time.
func openCluster(db *banks.Database, paths []string, minFor time.Duration) (*banks.Cluster, time.Duration, error) {
	var c *banks.Cluster
	took, err := timeSetUp(minFor, func() (err error) {
		if c != nil {
			c.Close()
		}
		c, err = banks.OpenCluster(db, paths, nil)
		return err
	})
	return c, took, err
}

// durableOptions is the durable configuration: a WAL and a persisted store.
func durableOptions(dir string) (*banks.SystemOptions, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &banks.SystemOptions{
		WALPath:   filepath.Join(dir, "bench.wal"),
		StorePath: filepath.Join(dir, "bench.bstore"),
	}, nil
}

// durableCopy generates a second copy of the dataset and a durable
// System over it, for write-path measurements that must not touch the
// database the workload serves from.
func durableCopy(scale datagen.DBLPConfig, dir string) (*sqldb.Database, *banks.System, error) {
	inner, err := datagen.BuildDBLP(scale)
	if err != nil {
		return nil, nil, fmt.Errorf("datagen: %w", err)
	}
	opts, err := durableOptions(dir)
	if err != nil {
		return nil, nil, err
	}
	sys, err := banks.NewSystem(banks.WrapDatabase(inner), opts)
	return inner, sys, err
}

// setUp makes the workload's system ready to serve from the in-memory
// database, repeatedly (timeSetUp), and keeps the last one. What it times is the
// call a deployment pays at start: NewSystem for the single-engine
// workloads (with the store persist on the durable config), OpenCluster
// over existing partition stores for scatter-names. Making those stores
// is fixture work and is timed apart.
func setUp(w workload, db *banks.Database, dir string, minFor time.Duration) (*sut, error) {
	s := &sut{w: w, db: db}
	var err error
	if w.Cluster {
		if s.sys, err = banks.NewSystem(db, nil); err != nil {
			return nil, err
		}
		if s.parts, s.split, err = makePartitions(s.sys, dir); err != nil {
			return nil, err
		}
		if s.cluster, s.setup, err = openCluster(db, s.parts, minFor); err != nil {
			return nil, err
		}
		s.handler = s.cluster.ServeHandler(serveOptions())
		return s, nil
	}
	rep := 0
	s.setup, err = timeSetUp(minFor, func() (err error) {
		if s.sys != nil {
			s.sys.Close()
		}
		if w.Churn {
			// A fresh directory: NewSystem would replay an earlier WAL.
			rep++
			if s.opts, err = durableOptions(filepath.Join(dir, fmt.Sprintf("durable%d", rep))); err != nil {
				return err
			}
		}
		s.sys, err = banks.NewSystem(db, s.opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.handler = s.sys.ServeHandler(serveOptions())
	return s, nil
}
