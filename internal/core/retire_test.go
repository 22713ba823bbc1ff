package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

// Iterator retirement (exec.iteratorDone) must change nothing but the work
// done: every check here runs the same search twice, once as shipped and
// once on a Searcher with noRetire set — the paper's run-to-exhaustion
// loop — and compares the two.

// retireWords is the query vocabulary; none of it names a table or column,
// so no term expands to a metadata match.
var retireWords = []string{"alpha", "bravo", "charlie", "delta"}

// retireCase is one generated search: an engine, its terms and options.
type retireCase struct {
	f     *fixture
	terms []string
	opts  *Options
}

func (c retireCase) String() string {
	o := c.opts
	return fmt.Sprintf("terms=%v excluded=%v topk=%d heap=%d maxpops=%d", c.terms, o.ExcludedRootTables, o.TopK, o.HeapSize, o.Budget.MaxPops)
}

// genRetireCase builds an FK graph split into several components: node
// rows link only to node rows of their own component, through link rows
// (so each FK link yields the arc pair the rule relies on). Some keyword
// nodes are isolated, some match two terms, and a few link rows carry a
// keyword too. shape picks 2–4 terms; flags bit 0 excludes link rows as
// roots, bit 1 sets TopK = HeapSize = 1, bit 2 adds a MaxPops budget and bit 3
// (without bit 1) asks for every answer under a small MaxCombosPerVisit.
func genRetireCase(t *testing.T, seed int64, shape, flags uint8) retireCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nTerms := 2 + int(shape%3)
	nComps := 1 + int(shape/3)%4
	nodes := 4 + rng.Intn(60)

	db := sqldb.NewDatabase()
	for _, s := range []*sqldb.TableSchema{
		{
			Name:       "node",
			Columns:    []sqldb.Column{{Name: "id", Type: sqldb.TypeInt, NotNull: true}, {Name: "label", Type: sqldb.TypeText}},
			PrimaryKey: []string{"id"},
		},
		{
			Name: "link",
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TypeInt, NotNull: true},
				{Name: "src", Type: sqldb.TypeInt},
				{Name: "dst", Type: sqldb.TypeInt},
				{Name: "label", Type: sqldb.TypeText},
			},
			PrimaryKey: []string{"id"},
			ForeignKeys: []sqldb.ForeignKey{
				{Column: "src", RefTable: "node"},
				{Column: "dst", RefTable: "node", Weight: 2},
			},
		},
	} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	words := retireWords[:nTerms]
	label := func(p float64) string {
		switch r := rng.Float64(); {
		case r < p/4:
			i := rng.Intn(len(words))
			return words[i] + " " + words[(i+1+rng.Intn(len(words)-1))%len(words)]
		case r < p:
			return words[rng.Intn(len(words))]
		}
		return "plain"
	}
	comp := make([]int, nodes)
	isolated := make([]bool, nodes)
	byComp := make([][]int, nComps)
	for i := range comp {
		comp[i] = rng.Intn(nComps)
		isolated[i] = rng.Intn(8) == 0
		if !isolated[i] {
			byComp[comp[i]] = append(byComp[comp[i]], i)
		}
		if _, err := db.Insert("node", []sqldb.Value{sqldb.Int(int64(i)), sqldb.Text(label(0.4))}); err != nil {
			t.Fatal(err)
		}
	}
	for l, links := 0, rng.Intn(2*nodes+1); l < links; l++ {
		members := byComp[rng.Intn(nComps)]
		if len(members) < 2 {
			continue
		}
		u, v := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
		if u == v {
			continue
		}
		dst := sqldb.Int(int64(v))
		if rng.Intn(10) == 0 {
			dst = sqldb.Null()
		}
		if _, err := db.Insert("link", []sqldb.Value{sqldb.Int(int64(l)), sqldb.Int(int64(u)), dst, sqldb.Text(label(0.1))}); err != nil {
			t.Fatal(err)
		}
	}

	terms := append([]string(nil), words...)
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	o := DefaultOptions()
	if flags&1 != 0 {
		o.ExcludedRootTables = []string{"link"}
	}
	switch {
	case flags&2 != 0:
		o.TopK, o.HeapSize = 1, 1
	case flags&8 != 0:
		// Far more answers than the graph holds, so the search runs until
		// the iterator heap empties; the combo cap keeps 4-term cross
		// products cheap.
		o.TopK, o.MaxCombosPerVisit = 1<<20, 64
	}
	f := newFixture(t, db)
	if flags&4 != 0 {
		// Budgets up to twice the pops retirement leaves: about half cut
		// the search, some of them after a retirement, and the rest cut
		// only the reference.
		_, st, err := f.s.SearchStats(terms, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Budget.MaxPops = 1 + rng.Intn(2*st.Pops+1)
	}
	return retireCase{f: f, terms: terms, opts: o}
}

// renderAnswers is the compared form of an answer list: rank, root, exact
// score, edges and term nodes.
func renderAnswers(answers []*Answer) string {
	var b strings.Builder
	for _, a := range answers {
		fmt.Fprintf(&b, "%d root=%d score=%v edges=%v terms=%v\n", a.Rank, a.Root, a.Score, a.Edges, a.TermNodes)
	}
	return b.String()
}

// workFree is st without the fields retirement is allowed to change.
func workFree(st *Stats) Stats {
	c := *st
	c.Pops, c.ArcsScanned, c.Retired = 0, 0, 0
	return c
}

// checkRetirement compares c's search against the no-retirement reference
// and returns the stats of the search with retirement.
// Pops must never be higher. Unless the budget cut the search, answers and
// every work-free Stats field equal the reference's run without a budget.
// A pops budget cut counts only useful pops, so the reference matches it
// at some budget Q ≥ MaxPops: the one at which it has made as many useful
// pops, plus the useless ones in between.
func checkRetirement(t *testing.T, c retireCase) *Stats {
	t.Helper()
	ref := NewSearcher(c.f.g, c.f.ix)
	ref.noRetire = true
	got, gst, err := c.f.s.SearchStats(c.terms, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	_, wst, err := ref.SearchStats(c.terms, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if gst.Pops > wst.Pops {
		t.Fatalf("%v: %d pops with retirement, %d without", c, gst.Pops, wst.Pops)
	}
	if wst.Retired != 0 {
		t.Fatalf("%v: the reference retired %d iterators", c, wst.Retired)
	}
	unbudgeted := *c.opts
	unbudgeted.Budget.MaxPops = 0
	full, fst, err := ref.SearchStats(c.terms, &unbudgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !gst.BudgetExhausted {
		if g, w := renderAnswers(got), renderAnswers(full); g != w {
			t.Fatalf("%v: answers differ\nwith retirement:\n%s\nwithout:\n%s", c, g, w)
		}
		if g, w := workFree(gst), workFree(fst); !reflect.DeepEqual(g, w) {
			t.Fatalf("%v: stats differ\nwith retirement: %+v\nwithout:         %+v", c, g, w)
		}
		return gst
	}
	if !wst.BudgetExhausted {
		t.Fatalf("%v: the budget cut the search only with retirement", c)
	}
	budgeted, want := *c.opts, renderAnswers(got)
	for q := c.opts.Budget.MaxPops; q <= fst.Pops; q++ {
		budgeted.Budget.MaxPops = q
		ans, st, err := ref.SearchStats(c.terms, &budgeted)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(workFree(st), workFree(gst)) && renderAnswers(ans) == want {
			return gst
		}
	}
	t.Fatalf("%v: no reference budget in [%d, %d] reproduces the budget-cut search:\n%s",
		c, c.opts.Budget.MaxPops, fst.Pops, want)
	return gst
}

// FuzzExpansionRetirement checks retirement against the reference on
// generated multi-component graphs; the committed corpus under
// testdata/fuzz replays under plain go test.
func FuzzExpansionRetirement(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(2), uint8(7), uint8(1))
	f.Add(int64(3), uint8(11), uint8(2))
	f.Add(int64(4), uint8(5), uint8(4))
	f.Add(int64(5), uint8(10), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, shape, flags uint8) {
		checkRetirement(t, genRetireCase(t, seed, shape, flags))
	})
}

// TestExpansionRetirementRandomized runs the fuzz target's check over a
// fixed sweep of the generator. A random budget rarely lands after a
// retirement with useful work left, so for every case it also checks each
// pops budget that cuts the search after its first retirement.
func TestExpansionRetirementRandomized(t *testing.T) {
	retired, cutAfter := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		c := genRetireCase(t, seed, uint8(seed*7), uint8(seed))
		if checkRetirement(t, c).Retired > 0 {
			retired++
		}
		o := *c.opts
		o.Budget.MaxPops = 0
		_, full, err := c.f.s.SearchStats(c.terms, &o)
		if err != nil {
			t.Fatal(err)
		}
		for b := full.Pops - 1; b > 0; b-- {
			cut := o
			cut.Budget.MaxPops = b
			if _, st, err := c.f.s.SearchStats(c.terms, &cut); err != nil || st.Retired == 0 {
				break
			}
			checkRetirement(t, retireCase{f: c.f, terms: c.terms, opts: &cut})
			cutAfter++
		}
	}
	t.Logf("400 cases: %d retired iterators; %d budgets cut a search after a retirement", retired, cutAfter)
	if retired < 40 || cutAfter < 20 {
		t.Errorf("the sweep exercises the rule too little (%d cases, %d cuts after a retirement)", retired, cutAfter)
	}
}
