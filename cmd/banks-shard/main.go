// Command banks-shard splits a segmented BANKS store into N partition
// stores along the (table, row-range) cut, ready for distributed serving
// (banks.OpenCluster, or one banks-shard -serve process per partition).
//
// Usage:
//
//	banks-shard -in store.banks -n 4 [-out BASE]
//	banks-shard -serve :9001 -store store.banks.p1
//
// The split writes BASE.p0 … BASE.pN-1 (BASE defaults to -in). Every
// partition holds every table (each table's rows shard into contiguous
// chunks), keeps the source's global score normalizers — so partition-
// local answers score bit-identically to the single-engine search — and
// carries a term-statistics sketch the routing broker uses to prune
// partitions that cannot match a query.
//
// -serve exposes one partition store over HTTP (GET /cluster/meta,
// POST /cluster/query) for remote scatter-gather.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/banksdb/banks/internal/cluster"
)

func main() {
	in := flag.String("in", "", "source store to split")
	out := flag.String("out", "", "output base path (default: the -in path); partitions land at BASE.p0..BASE.pN-1")
	n := flag.Int("n", 2, "number of partitions")
	serveAddr := flag.String("serve", "", "serve one partition store over HTTP at this address instead of splitting")
	servePath := flag.String("store", "", "partition store to serve with -serve")
	flag.Parse()

	switch {
	case *serveAddr != "":
		if *servePath == "" {
			fmt.Fprintln(os.Stderr, "banks-shard: -serve requires -store PATH")
			os.Exit(2)
		}
		servePartition(*serveAddr, *servePath)
	case *in != "":
		base := *out
		if base == "" {
			base = *in
		}
		if *n <= 0 {
			fmt.Fprintln(os.Stderr, "banks-shard: -n must be positive")
			os.Exit(2)
		}
		paths := cluster.PartitionPaths(base, *n)
		start := time.Now()
		if err := cluster.SplitStore(*in, paths); err != nil {
			log.Fatal(err)
		}
		log.Printf("split %s into %d partitions in %v:", *in, *n, time.Since(start))
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("  %s (%d bytes)", p, fi.Size())
		}
	default:
		fmt.Fprintln(os.Stderr, "banks-shard: need -in PATH (split) or -serve ADDR -store PATH (serve)")
		flag.Usage()
		os.Exit(2)
	}
}

func servePartition(addr, path string) {
	p, err := cluster.OpenLocal(path, path, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	srv := &http.Server{
		Addr:              addr,
		Handler:           cluster.Handler(p),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("serving partition %s on %s (/cluster/meta, /cluster/query)", path, addr)
	log.Fatal(srv.ListenAndServe())
}
