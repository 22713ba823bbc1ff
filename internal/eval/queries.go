package eval

import (
	"fmt"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// DefaultDBLPOptions returns the search configuration used for the DBLP
// evaluation: link relations (Writes, Cites) may not be information nodes,
// mirroring the paper's §2.1 remark.
func DefaultDBLPOptions() *core.Options {
	o := core.DefaultOptions()
	o.ExcludedRootTables = []string{"Writes", "Cites"}
	return o
}

// nodeOf locates the graph node of a row by textual primary key.
func nodeOf(db *sqldb.Database, g graph.View, table, pk string) (graph.NodeID, error) {
	t := db.Table(table)
	if t == nil {
		return graph.NoNode, fmt.Errorf("eval: no table %s", table)
	}
	rid := t.LookupPK([]sqldb.Value{sqldb.Text(pk)})
	if rid < 0 {
		return graph.NoNode, fmt.Errorf("eval: no %s row %q", table, pk)
	}
	n := g.NodeOf(table, rid)
	if n == graph.NoNode {
		return graph.NoNode, fmt.Errorf("eval: no node for %s/%s", table, pk)
	}
	return n, nil
}

// containsAll matches answers whose trees contain every given node —
// root-insensitive tree identity, as §5.3 prescribes.
func containsAll(nodes ...graph.NodeID) func(*core.Answer, graph.View) bool {
	return func(a *core.Answer, _ graph.View) bool {
		for _, n := range nodes {
			if !a.ContainsNode(n) {
				return false
			}
		}
		return true
	}
}

// isSingleNode matches the single-node answer for n.
func isSingleNode(n graph.NodeID) func(*core.Answer, graph.View) bool {
	return func(a *core.Answer, _ graph.View) bool {
		return a.Root == n && len(a.Edges) == 0
	}
}

// TPCDSuite builds an evaluation query mix against a database produced by
// datagen.BuildTPCD: part-name words, part-plus-metadata and single-term
// queries over the order catalog. TPC-D has no hand-picked ideal answers
// in the paper, so these queries carry none — they exist for cross-
// backend and cross-build parity checks, which compare full ranked answer
// lists rather than error scores.
func TPCDSuite() []Query {
	return []Query{
		{Name: "part-words", Terms: []string{"steel", "widget"}},
		{Name: "part-words-three", Terms: []string{"premium", "steel", "widget"}},
		{Name: "part-words-rare", Terms: []string{"economy", "widget"}},
		{Name: "part-and-supplier", Terms: []string{"steel", "supplier"}},
		{Name: "single-popular", Terms: []string{"widget"}},
		{Name: "single-metadata", Terms: []string{"lineitem"}},
	}
}

// DBLPSuite builds the seven evaluation queries of §5.3 against a database
// produced by datagen.BuildDBLP. The query mix follows the paper's
// description: coauthor pairs, authors with a common coauthor, author plus
// title words, title words alone, and single-term queries.
func DBLPSuite(db *sqldb.Database, g graph.View) ([]Query, error) {
	n := func(table, pk string) graph.NodeID {
		node, err := nodeOf(db, g, table, pk)
		if err != nil {
			panic(err) // converted below
		}
		return node
	}
	var queries []Query
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = e
					return
				}
				panic(r)
			}
		}()
		chak98 := n("Paper", datagen.PaperChakrabartiSD98)
		second := n("Paper", datagen.PaperSoumenSunita2nd)
		soumen := n("Author", datagen.AuthorSoumen)
		sunita := n("Author", datagen.AuthorSunita)
		byron := n("Author", datagen.AuthorByron)
		stone := n("Author", datagen.AuthorStonebraker)
		seltzer := n("Author", datagen.AuthorSeltzer)
		gray := n("Author", datagen.AuthorJimGray)
		grayTC := n("Paper", datagen.PaperGrayTransaction)
		book := n("Paper", datagen.PaperGrayReuterBook)
		cmohan := n("Author", datagen.AuthorCMohan)
		ahuja := n("Author", datagen.AuthorMohanAhuja)
		kamat := n("Author", datagen.AuthorMohanKamat)

		queries = []Query{
			{
				Name:  "coauthors",
				Terms: []string{"soumen", "sunita"},
				Ideals: []IdealAnswer{
					{Desc: "ChakrabartiSD98 connecting Soumen and Sunita", Match: containsAll(chak98, soumen, sunita)},
					{Desc: "their second paper connecting them", Match: containsAll(second, soumen, sunita)},
				},
			},
			{
				Name:  "common-coauthor",
				Terms: []string{"seltzer", "sunita"},
				Ideals: []IdealAnswer{
					{Desc: "Seltzer and Sunita bridged through Stonebraker", Match: containsAll(stone, seltzer, sunita)},
				},
			},
			{
				Name:  "author-and-title",
				Terms: []string{"gray", "concepts"},
				Ideals: []IdealAnswer{
					{Desc: "the Gray–Reuter book written by Gray", Match: containsAll(book, gray)},
				},
			},
			{
				Name:  "title-words",
				Terms: []string{"mining", "surprising", "patterns"},
				Ideals: []IdealAnswer{
					{Desc: "ChakrabartiSD98 itself", Match: isSingleNode(chak98)},
				},
			},
			{
				Name:  "single-author",
				Terms: []string{"mohan"},
				Ideals: []IdealAnswer{
					{Desc: "C. Mohan (most papers)", Match: isSingleNode(cmohan)},
					{Desc: "Mohan Ahuja", Match: isSingleNode(ahuja)},
					{Desc: "Mohan Kamat", Match: isSingleNode(kamat)},
				},
			},
			{
				Name:  "single-title-word",
				Terms: []string{"transaction"},
				Ideals: []IdealAnswer{
					{Desc: "Gray's classic (most cited)", Match: isSingleNode(grayTC)},
					{Desc: "the Gray–Reuter book", Match: isSingleNode(book)},
				},
			},
			{
				Name:  "three-coauthors",
				Terms: []string{"soumen", "sunita", "byron"},
				Ideals: []IdealAnswer{
					{Desc: "ChakrabartiSD98 connecting all three", Match: containsAll(chak98, soumen, sunita, byron)},
				},
			},
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	return queries, nil
}
