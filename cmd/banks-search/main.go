// Command banks-search answers keyword queries from the command line
// against one of the built-in datasets, printing connection trees in the
// indented style of the paper's Figure 2.
//
// Usage:
//
//	banks-search [-data dblp|thesis|tpcd] [-scale small|paper] \
//	             [-k 10] [-lambda 0.2] [-edgelog=true] [-stats] query terms...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

func main() {
	data := flag.String("data", "dblp", "dataset: dblp, thesis or tpcd")
	scale := flag.String("scale", "small", "dataset scale: small or paper")
	topK := flag.Int("k", 10, "answers to return")
	lambda := flag.Float64("lambda", 0.2, "node-weight factor λ (0..1)")
	edgeLog := flag.Bool("edgelog", true, "log-scale edge weights")
	nodeLog := flag.Bool("nodelog", false, "log-scale node weights")
	mult := flag.Bool("mult", false, "multiplicative score combination")
	stats := flag.Bool("stats", false, "print search statistics")
	flag.Parse()
	terms := flag.Args()
	if len(terms) == 0 {
		fmt.Fprintln(os.Stderr, "usage: banks-search [flags] term...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	db, excluded, err := loadDataset(*data, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	g, ix, err := index.BuildEngine(db, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	loadTime := time.Since(start)

	opts := core.DefaultOptions()
	opts.TopK = *topK
	opts.Score = core.ScoreOptions{Lambda: *lambda, EdgeLog: *edgeLog, NodeLog: *nodeLog}
	if *mult {
		opts.Score.Combine = core.Multiplicative
	}
	opts.ExcludedRootTables = excluded

	// Interrupt (Ctrl-C) cancels the context, which stops the backward
	// expanding search within a few hundred iterator pops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s := core.NewSearcher(g, ix)
	qstart := time.Now()
	answers, st, err := s.Query(ctx, core.Request{Terms: terms}, opts, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	qtime := time.Since(qstart)

	for _, a := range answers {
		fmt.Printf("%2d. score=%.4f (E=%.4f N=%.4f, weight %.3g)\n",
			a.Rank, a.Score, a.EScore, a.NScore, a.Weight)
		fmt.Print(indent(describe(a, g, db)))
	}
	if len(answers) == 0 {
		fmt.Println("no results")
	}
	if *stats {
		fmt.Printf("\ngraph: %s (loaded in %v)\nquery: %v, %d pops, %d trees generated, %d duplicates\n",
			g, loadTime, qtime, st.Pops, st.Generated, st.Duplicates)
		fmt.Printf("matched nodes per term: %v\n", st.MatchedNodes)
	}
}

// describe renders an answer with actual attribute values.
func describe(a *core.Answer, g *graph.Graph, db *sqldb.Database) string {
	children := make(map[graph.NodeID][]core.TreeEdge)
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e)
	}
	var out string
	var walk func(n graph.NodeID, depth int)
	walk = func(n graph.NodeID, depth int) {
		t := db.Table(g.TableNameOf(n))
		row := t.Row(g.RIDOf(n))
		line := g.TableNameOf(n) + "("
		for i, c := range t.Schema().Columns {
			if i > 0 {
				line += ", "
			}
			line += c.Name + "=" + row[i].String()
		}
		line += ")"
		for i := 0; i < depth; i++ {
			out += "    "
		}
		if depth > 0 {
			out += "-> "
		}
		out += line + "\n"
		for _, e := range children[n] {
			walk(e.To, depth+1)
		}
	}
	walk(a.Root, 0)
	return out
}

func indent(s string) string { return "    " + s }

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
	return nil, nil, fmt.Errorf("banks-search: unknown dataset %q", name)
}
