package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// querier is what both front doors answer through: System.Query and
// Cluster.Query.
type querier interface {
	Query(ctx context.Context, q banks.Query) (*banks.Results, error)
}

func ask(ctx context.Context, e querier, text string, topK int) ([]*banks.Answer, error) {
	opts := searchOptions()
	opts.TopK = topK
	res, err := e.Query(ctx, banks.Query{Text: text, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", text, err)
	}
	return res.Answers, nil
}

// answerKey identifies an answer by what a user would compare: the root
// tuple and the score, to 1e-9.
type answerKey struct {
	table string
	rid   int64
	score int64
}

func keyOf(a *banks.Answer) answerKey {
	return answerKey{strings.ToLower(a.Root.Table), a.Root.RID, int64(math.Round(a.Score * 1e9))}
}

// verdict accumulates the correctness pass.
type verdict struct {
	schema     map[string]*sqldb.TableSchema // by lower-cased table name
	violations []string
	// recallHit / recallWant: answers of the reference top-10 that the
	// system under test also returned, over the multi-term queries checked.
	recallHit, recallWant int
}

func newVerdict() *verdict {
	v := &verdict{schema: map[string]*sqldb.TableSchema{}}
	for _, t := range datagen.DBLPSchema() {
		v.schema[strings.ToLower(t.Name)] = t
	}
	return v
}

func (v *verdict) fail(format string, args ...interface{}) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

func (v *verdict) recall() float64 {
	if v.recallWant == 0 {
		return 1
	}
	return float64(v.recallHit) / float64(v.recallWant)
}

// linked reports whether one tuple references the other through a
// foreign key of the schema: the child's key column holds the parent's
// primary key. It reads the tuple values alone.
func linked(schema map[string]*sqldb.TableSchema, a, b banks.Tuple) bool {
	value := func(t banks.Tuple, col string) interface{} {
		for i, c := range t.Columns {
			if strings.EqualFold(c, col) {
				return t.Values[i]
			}
		}
		return nil
	}
	refs := func(from, to banks.Tuple) bool {
		fs, ts := schema[strings.ToLower(from.Table)], schema[strings.ToLower(to.Table)]
		if fs == nil || ts == nil || len(ts.PrimaryKey) != 1 {
			return false
		}
		for _, fk := range fs.ForeignKeys {
			if !strings.EqualFold(fk.RefTable, to.Table) {
				continue
			}
			if v := value(from, fk.Column); v != nil && v == value(to, ts.PrimaryKey[0]) {
				return true
			}
		}
		return false
	}
	return refs(a, b) || refs(b, a)
}

// soundTree checks an answer against the database alone, not against
// the engine that made it: every edge of its tree joins two tuples one
// of which references the other, and every keyword of the query occurs
// in some tuple of the tree.
func soundTree(schema map[string]*sqldb.TableSchema, a *banks.Answer, text string) error {
	have := map[string]bool{}
	var walk func(n *banks.TreeNode) error
	walk = func(n *banks.TreeNode) error {
		for _, v := range n.Tuple.Values {
			for _, tok := range index.Tokenize(fmt.Sprint(v)) {
				have[tok] = true
			}
		}
		for _, c := range n.Children {
			if !linked(schema, n.Tuple, c.Tuple) {
				return fmt.Errorf("edge %s#%d - %s#%d follows no foreign key", n.Tuple.Table, n.Tuple.RID, c.Tuple.Table, c.Tuple.RID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(a.Tree); err != nil {
		return err
	}
	for _, term := range index.Tokenize(text) {
		if !have[term] {
			return fmt.Errorf("keyword %q is in no tuple of the tree", term)
		}
	}
	return nil
}

// treeKey identifies a connection tree by its root and its tuples.
func treeKey(a *banks.Answer) string {
	var nodes []string
	var walk func(n *banks.TreeNode)
	walk = func(n *banks.TreeNode) {
		nodes = append(nodes, fmt.Sprintf("%s#%d", strings.ToLower(n.Tuple.Table), n.Tuple.RID))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a.Tree)
	root := nodes[0]
	sort.Strings(nodes)
	return root + "|" + strings.Join(nodes, ",")
}

// answerAll asks e every query, in list order. The pass asks one engine
// at a time: two engines taking turns evict each other's arenas and run
// several times slower.
func answerAll(ctx context.Context, e querier, qs []query) ([][]*banks.Answer, error) {
	out := make([][]*banks.Answer, len(qs))
	for i, q := range qs {
		var err error
		if out[i], err = ask(ctx, e, q.Text, 10); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkQueries runs every query on the system under test and on the
// reference engine. Always: each tree of the system under test is sound
// against the database. With exact set, both lists must agree answer
// for answer on (root table, rid, score). Without it (a cluster, whose
// partitions cannot see trees that cross a cut, so the lists differ)
// every tree both engines return must carry the same score, and the
// share of the reference's answers that the cluster returned is its
// recall.
func (v *verdict) checkQueries(ctx context.Context, name string, sut, ref querier, qs []query, exact bool) error {
	gots, err := answerAll(ctx, sut, qs)
	if err != nil {
		return err
	}
	wants, err := answerAll(ctx, ref, qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		got, want := gots[i], wants[i]
		for _, a := range got {
			if err := soundTree(v.schema, a, q.Text); err != nil {
				v.fail("%s: query %q: answer rooted at %s#%d: %v", name, q.Text, a.Root.Table, a.Root.RID, err)
			}
		}
		if q.Class != class1Term {
			gotKeys := map[answerKey]bool{}
			for _, a := range got {
				gotKeys[keyOf(a)] = true
			}
			for _, a := range want {
				v.recallWant++
				if gotKeys[keyOf(a)] {
					v.recallHit++
				}
			}
		}
		if !exact {
			scores := map[string]int64{}
			for _, a := range want {
				scores[treeKey(a)] = keyOf(a).score
			}
			for _, a := range got {
				if s, ok := scores[treeKey(a)]; ok && s != keyOf(a).score {
					v.fail("%s: query %q: the tree rooted at %s#%d scores %.9f, the single engine scores it %.9f",
						name, q.Text, a.Root.Table, a.Root.RID, a.Score, float64(s)/1e9)
				}
			}
			continue
		}
		if len(got) != len(want) {
			v.fail("%s: query %q: %d answers, reference has %d", name, q.Text, len(got), len(want))
			continue
		}
		for j := range got {
			if keyOf(got[j]) != keyOf(want[j]) {
				v.fail("%s: query %q: answer %d is %s#%d score %.9f, reference has %s#%d score %.9f", name, q.Text, j+1,
					got[j].Root.Table, got[j].Root.RID, got[j].Score, want[j].Root.Table, want[j].Root.RID, want[j].Score)
				break
			}
		}
	}
	return nil
}

// checkDurable reopens the durable system from its store and WAL and
// asks for every acknowledged bench author by its AuthorId token.
func (v *verdict) checkDurable(ctx context.Context, db *banks.Database, opts *banks.SystemOptions, acked map[string]bool) error {
	sys, err := banks.OpenSystem(opts.StorePath, db, &banks.SystemOptions{WALPath: opts.WALPath})
	if err != nil {
		return fmt.Errorf("reopening the durable system: %w", err)
	}
	defer sys.Close()
	for id := range acked {
		answers, err := ask(ctx, sys, id, 10)
		if err != nil {
			return err
		}
		found := false
		for _, a := range answers {
			if strings.EqualFold(a.Root.Table, "Author") {
				found = true
			}
		}
		if !found {
			v.fail("durability: acknowledged author %s is not found after reopen", id)
		}
	}
	return nil
}
