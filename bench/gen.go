package main

import (
	"fmt"
	"math/rand"
	"strings"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/index"
)

// Query classes. Each makes the engine work in a different regime; the
// README's class table says which layer dominates in each.
const (
	class1Term     = "1term"
	className      = "name"
	classCoauthors = "coauthors"
	classPairFar   = "pair-far"
)

var classNames = []string{class1Term, className, classCoauthors, classPairFar}

// originCap bounds the summed match-set size of a generated query. Every
// matched tuple opens one dense iterator of 24 B x |V| (2.4 MB at paper
// scale), so uncapped title-word queries cost gigabytes each and make
// identical runs differ by 2x (README, "origin cap"). Raising it is a
// benchmark change that waits for ROADMAP P2.
const originCap = 400

// farOriginsMin..farOriginsMax is the match-set size a pair-far query
// must have: an author row plus one Writes row per paper, so 3 or 4
// tuples in all. Outside
// that band a class meant to be one regime is three. With 2, both
// authors wrote nothing and the search ends after 2 pops. With more, a
// prolific author's 20 to 80 origins each expand to exhaustion and one
// query takes 0.5 to 2 s, up to the engine's 2M-pop valve; lists then
// differ from seed to seed by how many of those they drew (p50 17 to 100
// ms, p95 380 to 740 ms over ten seeds).
const farOriginsMin, farOriginsMax = 3, 4

type query struct {
	Class string
	Text  string
}

type author struct {
	ID, First, Last string
}

// corpus is what the generators sample from: the rows of the built
// database, read through the public SQL surface. The system under test
// only ever sees the strings made from it.
type corpus struct {
	authors    []author
	papers     []string   // PaperId, in row order
	coauthored [][]author // author lists of papers with >= 2 authors
	titleWords []string   // every title token, with repetition, in row order
}

func readCorpus(db *banks.Database) (*corpus, error) {
	c := &corpus{}
	byID := map[string]author{}
	res, err := db.Exec(`SELECT AuthorId, AuthorName FROM Author`)
	if err != nil {
		return nil, fmt.Errorf("reading authors: %w", err)
	}
	for _, r := range res.Rows {
		id, _ := r[0].(string)
		name, _ := r[1].(string)
		toks := index.Tokenize(name)
		if len(toks) < 2 {
			continue
		}
		a := author{ID: id, First: toks[0], Last: toks[len(toks)-1]}
		c.authors = append(c.authors, a)
		byID[id] = a
	}
	res, err = db.Exec(`SELECT PaperId, PaperName FROM Paper`)
	if err != nil {
		return nil, fmt.Errorf("reading papers: %w", err)
	}
	for _, r := range res.Rows {
		id, _ := r[0].(string)
		title, _ := r[1].(string)
		c.papers = append(c.papers, id)
		c.titleWords = append(c.titleWords, index.Tokenize(title)...)
	}
	res, err = db.Exec(`SELECT PaperId, AuthorId FROM Writes`)
	if err != nil {
		return nil, fmt.Errorf("reading writes: %w", err)
	}
	byPaper := map[string][]author{}
	var order []string
	for _, r := range res.Rows {
		pid, _ := r[0].(string)
		aid, _ := r[1].(string)
		a, ok := byID[aid]
		if !ok {
			continue
		}
		if _, seen := byPaper[pid]; !seen {
			order = append(order, pid)
		}
		byPaper[pid] = append(byPaper[pid], a)
	}
	for _, pid := range order {
		if as := byPaper[pid]; len(as) >= 2 {
			c.coauthored = append(c.coauthored, as)
		}
	}
	if len(c.authors) < 2 || len(c.coauthored) == 0 || len(c.titleWords) == 0 {
		return nil, fmt.Errorf("corpus too small: %d authors, %d co-authored papers, %d title words",
			len(c.authors), len(c.coauthored), len(c.titleWords))
	}
	return c, nil
}

// draw makes one candidate query of the class; admit decides whether it
// enters a list.
func (c *corpus) draw(rng *rand.Rand, class string) string {
	switch class {
	case class1Term:
		if rng.Intn(2) == 0 {
			return c.authors[rng.Intn(len(c.authors))].Last
		}
		return c.titleWords[rng.Intn(len(c.titleWords))]
	case className:
		a := c.authors[rng.Intn(len(c.authors))]
		return a.First + " " + a.Last
	case classCoauthors:
		as := c.coauthored[rng.Intn(len(c.coauthored))]
		i := rng.Intn(len(as))
		j := rng.Intn(len(as) - 1)
		if j >= i {
			j++
		}
		if as[i].Last == as[j].Last {
			return "" // redrawn: the rule asks for distinct last names
		}
		return as[i].Last + " " + as[j].Last
	case classPairFar:
		i := rng.Intn(len(c.authors))
		j := rng.Intn(len(c.authors) - 1)
		if j >= i {
			j++
		}
		return c.authors[i].ID + " " + c.authors[j].ID
	}
	panic("unknown query class " + class)
}

// lookupFunc is System.Lookup: match-set size and metadata matches of one term.
type lookupFunc func(term string) (tuples int, metadataTables []string)

// admit reports whether text may enter a list as a query of the class:
// every term has a match (so no request fails), none matches metadata,
// and the summed match-set size stays within originCap, and for
// pair-far within farOriginsMin..farOriginsMax.
func admit(lookup lookupFunc, class, text string) bool {
	terms := strings.Fields(text)
	if len(terms) == 0 {
		return false
	}
	sum := 0
	for _, t := range terms {
		n, meta := lookup(t)
		if n == 0 || len(meta) > 0 {
			return false
		}
		sum += n
	}
	if class == classPairFar {
		return farOriginsMin <= sum && sum <= farOriginsMax
	}
	return sum <= originCap
}

// mix is a traffic mix: class shares in percent, summing to 100.
type mix []struct {
	Class string
	Pct   int
}

var (
	mixNames = mix{{class1Term, 20}, {className, 45}, {classCoauthors, 35}}
	mixFar   = mix{{classPairFar, 100}}
)

func (m mix) pick(rng *rand.Rand) string {
	r := rng.Intn(100)
	for _, e := range m {
		if r < e.Pct {
			return e.Class
		}
		r -= e.Pct
	}
	panic("mix does not sum to 100")
}

// genQueries makes the n-query list of a workload from the seed alone:
// the same corpus, mix and seed give the same list, byte for byte.
func genQueries(c *corpus, lookup lookupFunc, m mix, n int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query, 0, n)
	for len(out) < n {
		class := m.pick(rng)
		out = append(out, query{Class: class, Text: c.drawAdmitted(rng, lookup, class)})
	}
	return out
}

func (c *corpus) drawAdmitted(rng *rand.Rand, lookup lookupFunc, class string) string {
	for {
		if text := c.draw(rng, class); admit(lookup, class, text) {
			return text
		}
	}
}

// sampleDistinct returns up to n distinct queries of qs, chosen by seed.
func sampleDistinct(qs []query, n int, seed int64) []query {
	seen := map[string]bool{}
	var distinct []query
	for _, q := range qs {
		if !seen[q.Text] {
			seen[q.Text] = true
			distinct = append(distinct, q)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	if len(distinct) > n {
		distinct = distinct[:n]
	}
	return distinct
}

// Mutation kinds of the churn writer's rotation.
const (
	mutInsert = "insert" // Author + Writes
	mutUpdate = "update" // a paper title
	mutDelete = "delete" // an earlier bench Author + its Writes
)

// rotation is the writer's cycle: 6 inserts, 3 updates, and 1 delete of
// the cycle's first insert.
var rotation = []string{
	mutInsert, mutInsert, mutUpdate, mutInsert, mutInsert,
	mutUpdate, mutInsert, mutInsert, mutUpdate, mutDelete,
}

// mutation is one batch of the writer's script, in symbolic form: row ids
// are known only once the inserts were applied, so a delete names its
// victim by the script position of the insert that made it.
type mutation struct {
	Kind       string
	AuthorID   string // insert
	AuthorName string // insert
	PaperID    string // insert: the paper written; update: the paper retitled
	Title      string // update
	Victim     int    // delete: script index of the insert to undo
}

// benchAuthorID is the AuthorId of the n-th insert; its single token is
// what the durability check searches for.
func benchAuthorID(n int) string { return fmt.Sprintf("BenchA%06d", n) }

// transientLast is the last name of the one insert per rotation that the
// rotation's delete removes again. No query of any list matches it, and
// an author with one paper is a dead end of the graph, so a deleted row is
// never part of an answer a reader is still rendering: the front door
// panics on such a row (web.Server.tupleHTML indexes the nil row of a
// tuple deleted after the request pinned its snapshot), and a benchmark
// runs workloads on which no operation fails.
const transientLast = "Benchgone"

// genMutations makes the writer's script. Inserted authors that stay
// carry a last name from the data, so the terms the readers query are the
// ones whose cached match sets each publish invalidates.
func genMutations(c *corpus, n int, seed int64) []mutation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mutation, 0, n)
	transient := -1 // script index of the rotation's first insert
	inserts := 0
	for i := 0; i < n; i++ {
		switch kind := rotation[i%len(rotation)]; kind {
		case mutInsert:
			last := c.authors[rng.Intn(len(c.authors))].Last
			if i%len(rotation) == 0 {
				last, transient = transientLast, i
			}
			out = append(out, mutation{
				Kind:       kind,
				AuthorID:   benchAuthorID(inserts),
				AuthorName: fmt.Sprintf("Benchw%06d %s", inserts, last),
				PaperID:    c.papers[rng.Intn(len(c.papers))],
			})
			inserts++
		case mutUpdate:
			words := make([]string, 4)
			for j := range words {
				words[j] = c.titleWords[rng.Intn(len(c.titleWords))]
			}
			out = append(out, mutation{
				Kind:    kind,
				PaperID: c.papers[rng.Intn(len(c.papers))],
				Title:   strings.Join(words, " "),
			})
		case mutDelete:
			out = append(out, mutation{Kind: kind, Victim: transient})
		}
	}
	return out
}
