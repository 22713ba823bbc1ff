// Command banks-web serves the BANKS web interface — keyword search plus
// the Section 4 browsing system — over one of the built-in datasets,
// behind the production front door: admission control with load
// shedding, per-query observability on /debug, and graceful shutdown.
//
// Usage:
//
//	banks-web [-data dblp|thesis|tpcd] [-scale small|paper] [-addr :8080]
//	          [-store PATH] [-partitions N]
//	          [-maxinflight N] [-maxqueue N] [-queuetimeout D]
//	          [-timeout D] [-slowquery D]
//
// With -store, the graph and keyword index are served from a segmented
// disk store instead of being rebuilt at startup: an existing store opens
// lazily in milliseconds (segments fault in on first query); a missing
// one is built once, persisted, and used — so the next start is instant.
//
// With -partitions N (requires -store), the store is split into N
// partition stores along the (table, row-range) cut (written next to the
// base store as PATH.p0 … PATH.pN-1, reused when present) and the same
// front door — the whole UI, admission control, /debug — is served over
// the scatter-gather cluster instead: /search routes by term statistics,
// scatters to the partitions and renders the merged answers.
//
// SIGINT/SIGTERM drain in-flight requests (bounded by -draintimeout)
// before the engine closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/browse"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/sqlexec"
)

func main() {
	data := flag.String("data", "thesis", "dataset: dblp, thesis or tpcd")
	scale := flag.String("scale", "small", "dataset scale: small or paper")
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "", "serve the engine from this disk store (built+saved on first run)")
	partitions := flag.Int("partitions", 0, "with -store: split into N partitions and serve the same UI over the scatter-gather cluster")
	maxInFlight := flag.Int("maxinflight", 32, "max concurrently executing searches (0 = no admission control)")
	maxQueue := flag.Int("maxqueue", 64, "max searches waiting for a worker slot before shedding")
	queueTimeout := flag.Duration("queuetimeout", 2*time.Second, "shed a queued search after waiting this long (0 = wait forever)")
	timeout := flag.Duration("timeout", 10*time.Second, "server-side deadline for searches without their own timeout (0 = none)")
	slowQuery := flag.Duration("slowquery", 500*time.Millisecond, "latency at which a query enters the /debug slow log")
	drainTimeout := flag.Duration("draintimeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	flag.Parse()

	db, excluded, err := loadDataset(*data, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	serveOpts := &banks.ServeOptions{
		Search:         &banks.SearchOptions{ExcludedRootTables: excluded},
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		DefaultTimeout: *timeout,
		SlowQuery:      *slowQuery,
	}
	// Either backend serves the same front door; all main needs of it is
	// the handler and how to close it.
	var backend interface {
		ServeHandler(*banks.ServeOptions) http.Handler
		Close() error
	}
	if *partitions > 0 {
		if *storePath == "" {
			fmt.Fprintln(os.Stderr, "banks-web: -partitions requires -store PATH")
			os.Exit(2)
		}
		backend, err = openCluster(db, *data, *scale, *storePath, *partitions)
	} else {
		backend, err = openSystem(db, *data, *scale, *storePath)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Seed a few demo templates so /template has content.
	if err := seedTemplates(db, *data); err != nil {
		log.Printf("seeding templates: %v", err)
	}
	handler := backend.ServeHandler(serveOpts)

	// A production-shaped server: header reads, whole requests, responses
	// and idle keep-alives all bounded, so one slow client cannot pin a
	// connection (and its worker slot) forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight requests finish (bounded), and only then close the engine
	// so no search runs against a released store.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("BANKS web UI on %s (observability on /debug)", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (up to %s)...", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
	if err := backend.Close(); err != nil {
		log.Printf("closing engine: %v", err)
	}
	log.Print("bye")
}

// openCluster produces the distributed serving Cluster: it ensures the
// base store exists (building and saving it if absent), splits it into
// n partition stores along the (table, row-range) cut when the
// partition files are missing, and opens every partition behind one
// scatter-gather coordinator.
func openCluster(db *sqldb.Database, data, scale, storePath string, n int) (*banks.Cluster, error) {
	wdb := banks.WrapDatabase(db)
	if _, err := os.Stat(storePath); os.IsNotExist(err) {
		start := time.Now()
		sys, err := banks.NewSystem(wdb, nil)
		if err != nil {
			return nil, err
		}
		saveErr := sys.Save(storePath)
		sys.Close()
		if saveErr != nil {
			return nil, saveErr
		}
		log.Printf("no store at %s: built and saved %s/%s in %v", storePath, data, scale, time.Since(start))
	}
	paths := banks.ClusterPartitionPaths(storePath, n)
	if _, err := os.Stat(paths[0]); os.IsNotExist(err) {
		start := time.Now()
		if err := cluster.SplitStore(storePath, paths); err != nil {
			return nil, err
		}
		log.Printf("split %s into %d partitions in %v", storePath, n, time.Since(start))
	}
	start := time.Now()
	cl, err := banks.OpenCluster(wdb, paths, nil)
	if err != nil {
		return nil, err
	}
	log.Printf("opened %d-partition cluster from %s in %v (/search scatters to the partitions)",
		n, storePath, time.Since(start))
	return cl, nil
}

// openSystem produces the serving System: a fresh in-memory build by
// default; with a store path, a lazy zero-rebuild open of the saved store
// (building and persisting it first if absent). Excluded root tables
// reach the searches through ServeOptions.Search, not the System.
func openSystem(db *sqldb.Database, data, scale, storePath string) (*banks.System, error) {
	wdb := banks.WrapDatabase(db)
	if storePath == "" {
		start := time.Now()
		sys, err := banks.NewSystem(wdb, nil)
		if err != nil {
			return nil, err
		}
		log.Printf("built %s/%s in %v", data, scale, time.Since(start))
		return sys, nil
	}
	if _, err := os.Stat(storePath); os.IsNotExist(err) {
		start := time.Now()
		sys, err := banks.NewSystem(wdb, nil)
		if err != nil {
			return nil, err
		}
		if err := sys.Save(storePath); err != nil {
			sys.Close()
			return nil, err
		}
		log.Printf("no store at %s: built and saved in %v (next start opens instantly)", storePath, time.Since(start))
		return sys, nil
	}
	start := time.Now()
	sys, err := banks.OpenSystem(storePath, wdb, nil)
	if err != nil {
		return nil, err
	}
	log.Printf("opened store %s in %v (%s/%s, zero rebuild; segments load on first query)",
		storePath, time.Since(start), data, scale)
	return sys, nil
}

func loadDataset(name, scale string) (*sqldb.Database, []string, error) {
	paper := scale == "paper"
	switch name {
	case "dblp":
		cfg := datagen.SmallDBLP()
		if paper {
			cfg = datagen.PaperScaleDBLP()
		}
		db, err := datagen.BuildDBLP(cfg)
		return db, []string{"Writes", "Cites"}, err
	case "thesis":
		cfg := datagen.SmallThesis()
		if paper {
			cfg = datagen.PaperScaleThesis()
		}
		db, err := datagen.BuildThesis(cfg)
		return db, nil, err
	case "tpcd":
		db, err := datagen.BuildTPCD(datagen.SmallTPCD())
		return db, []string{"lineitem"}, err
	}
	return nil, nil, fmt.Errorf("banks-web: unknown dataset %q (want dblp, thesis or tpcd)", name)
}

func seedTemplates(db *sqldb.Database, data string) error {
	engine := sqlexec.New(db)
	var tpls []browse.Template
	switch data {
	case "thesis":
		tpls = []browse.Template{
			{Name: "students-by-program", Kind: browse.KindGroupBy, Table: "student",
				Spec: map[string]string{"attrs": "progid,name"}},
			{Name: "student-folders", Kind: browse.KindFolder, Table: "student",
				Spec: map[string]string{"attrs": "progid,name"}},
			{Name: "students-chart", Kind: browse.KindChart, Table: "student",
				Spec: map[string]string{"label": "progid", "chart": "bar", "link": "students-by-program"}},
			{Name: "programs-crosstab", Kind: browse.KindCrossTab, Table: "program",
				Spec: map[string]string{"row": "deptid", "col": "name"}},
		}
	case "dblp":
		tpls = []browse.Template{
			{Name: "papers-by-year", Kind: browse.KindChart, Table: "Paper",
				Spec: map[string]string{"label": "Year", "chart": "line"}},
			{Name: "papers-drill", Kind: browse.KindGroupBy, Table: "Paper",
				Spec: map[string]string{"attrs": "Year"}},
		}
	case "tpcd":
		tpls = []browse.Template{
			{Name: "orders-by-customer", Kind: browse.KindChart, Table: "orders",
				Spec: map[string]string{"label": "custkey", "chart": "bar"}},
		}
	}
	for _, t := range tpls {
		if err := browse.SaveTemplate(engine, t); err != nil {
			return err
		}
	}
	return nil
}
