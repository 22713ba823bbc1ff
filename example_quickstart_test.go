package banks_test

import (
	"context"
	"fmt"
	"log"

	banks "github.com/banksdb/banks"
)

// Example_quickstart builds a three-table bibliography, asks a keyword
// query and prints the connection trees. This is the minimal end-to-end
// use of the public API: no schema knowledge is needed at query time.
func Example_quickstart() {
	db := banks.NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT);
		CREATE TABLE paper  (id TEXT PRIMARY KEY, title TEXT);
		CREATE TABLE writes (aid TEXT REFERENCES author, pid TEXT REFERENCES paper);

		INSERT INTO author VALUES
			('a1', 'Soumen Chakrabarti'),
			('a2', 'Sunita Sarawagi'),
			('a3', 'Byron Dom'),
			('a4', 'Rakesh Agrawal');
		INSERT INTO paper VALUES
			('p1', 'Mining Surprising Patterns Using Temporal Description Length'),
			('p2', 'Fast Algorithms for Mining Association Rules');
		INSERT INTO writes VALUES
			('a1', 'p1'), ('a2', 'p1'), ('a3', 'p1'),
			('a4', 'p2');
	`); err != nil {
		log.Fatal(err)
	}

	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}
	stats := sys.GraphStats()
	fmt.Printf("data graph: %d nodes, %d directed edges\n\n", stats.Nodes, stats.Arcs)

	// A keyword query naming two authors finds the paper connecting them,
	// even though the connection spans three relations. Query is the
	// single entry point: it takes a context (cancellation, deadlines)
	// and returns the answers together with per-search statistics.
	res, err := sys.Query(context.Background(), banks.Query{
		Text: "sunita soumen",
		Options: &banks.SearchOptions{
			ExcludedRootTables: []string{"writes"}, // link tuples are poor information nodes
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(`results for "sunita soumen":`)
	for _, a := range res.Answers {
		fmt.Print(a.Format())
	}
	fmt.Printf("\n(%d iterator pops, %d candidate trees)\n",
		res.Stats.Pops, res.Stats.Generated)

	// Output:
	// data graph: 10 nodes, 16 directed edges
	//
	// results for "sunita soumen":
	//  1. (0.2254) paper(id=p1, title=Mining Surprising Patterns Using Tempor…)
	//     -> writes(aid=a1, pid=p1)
	//         -> author(id=a1, name=Soumen Chakrabarti)  *
	//     -> writes(aid=a2, pid=p1)
	//         -> author(id=a2, name=Sunita Sarawagi)  *
	//
	// (14 iterator pops, 7 candidate trees)
}
