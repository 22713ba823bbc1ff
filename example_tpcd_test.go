package banks_test

import (
	"context"
	"fmt"
	"log"

	banks "github.com/banksdb/banks"
)

// Example_tpcd is the Section 2.1 prestige example. In an
// order-processing catalog, "if a query matches two parts (or suppliers,
// or customers) the one with more orders would get a higher prestige".
// Two parts match "steel widget"; the premium one appears in many
// lineitems and must rank first.
func Example_tpcd() {
	db := banks.NewDatabase()
	if err := db.ExecScript(tpcdSchema); err != nil {
		log.Fatal(err)
	}
	// The premium widget is ordered nine times, the economy one once.
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO orders VALUES (?, ?)", 100+i, 1+i%3)
		part := 1 // premium
		if i == 9 {
			part = 2 // economy gets a single order
		}
		db.MustExec("INSERT INTO lineitem VALUES (?, ?, ?)", 100+i, part, 1)
	}

	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Query(context.Background(), banks.Query{
		Text:    "steel widget",
		Options: &banks.SearchOptions{ExcludedRootTables: []string{"lineitem"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(`results for "steel widget" (prestige = order count):`)
	for _, a := range res.Answers {
		fmt.Printf("%2d. score=%.4f prestige-component=%.4f  %s\n",
			a.Rank, a.Score, a.NScore, a.Root.Label())
	}

	// The same database answers SQL for comparison.
	fmt.Println("\nper-part order counts (via SQL):")
	rows := db.MustExec(`SELECT p.name, COUNT(*) AS n FROM lineitem l
		JOIN part p ON p.partkey = l.partkey GROUP BY p.name ORDER BY n DESC`)
	for _, r := range rows.Rows {
		fmt.Printf("  %-24v %v\n", r[0], r[1])
	}

	// Output:
	// results for "steel widget" (prestige = order count):
	//  1. score=0.9800 prestige-component=0.9000  part(partkey=1, name=premium steel widget)
	//  2. score=0.8200 prestige-component=0.1000  part(partkey=2, name=economy steel widget)
	//  3. score=0.2140 prestige-component=0.6667  supplier(suppkey=1, name=Acme Industrial)
	//  4. score=0.1763 prestige-component=0.4667  customer(custkey=1, name=Laura Jensen)
	//  5. score=0.1695 prestige-component=0.3667  orders(orderkey=103, custkey=1)
	//  6. score=0.1695 prestige-component=0.3667  orders(orderkey=106, custkey=1)
	//
	// per-part order counts (via SQL):
	//   premium steel widget     9
	//   economy steel widget     1
}

const tpcdSchema = `
CREATE TABLE part (partkey INT PRIMARY KEY, name TEXT);
CREATE TABLE supplier (suppkey INT PRIMARY KEY, name TEXT);
CREATE TABLE customer (custkey INT PRIMARY KEY, name TEXT);
CREATE TABLE orders (orderkey INT PRIMARY KEY, custkey INT REFERENCES customer);
CREATE TABLE lineitem (orderkey INT REFERENCES orders,
	partkey INT REFERENCES part, suppkey INT REFERENCES supplier);

INSERT INTO part VALUES (1, 'premium steel widget'), (2, 'economy steel widget'),
	(3, 'anodized copper flange');
INSERT INTO supplier VALUES (1, 'Acme Industrial');
INSERT INTO customer VALUES (1, 'Laura Jensen'), (2, 'Miguel Cortez'), (3, 'Tanya Petrov');
`
