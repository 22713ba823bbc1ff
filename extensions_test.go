package banks

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
)

func TestQueryQualifiedForms(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:      "author:sunita author:soumen",
		Qualified: true,
		Options:   &SearchOptions{ExcludedRootTables: []string{"writes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if res.Answers[0].Root.Table != "paper" {
		t.Errorf("root = %s", res.Answers[0].Root.Table)
	}
	// A qualifier that matches nothing.
	res, err = sys.Query(context.Background(), Query{Text: "paper:sunita", Qualified: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("paper:sunita matched %d answers", len(res.Answers))
	}
	if _, err := sys.Query(context.Background(), Query{Text: "   ", Qualified: true}); err == nil {
		t.Error("empty query should error")
	}
}

func TestQueryPrefixFallback(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:      "sarawag",
		Qualified: true,
		Prefix:    true,
		Options:   &SearchOptions{ExcludedRootTables: []string{"writes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("prefix answers = %d", len(res.Answers))
	}
	if res.Answers[0].Root.Values[1] != "Sunita Sarawagi" {
		t.Errorf("root = %+v", res.Answers[0].Root)
	}
}

func TestQueryGroups(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	res, err := sys.Query(context.Background(), Query{
		Text:         "sunita soumen",
		GroupByShape: true,
		Options:      &SearchOptions{ExcludedRootTables: []string{"writes"}, HeapSize: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	total := 0
	for _, g := range res.Groups {
		if g.Shape == "" {
			t.Error("empty shape")
		}
		total += len(g.Answers)
	}
	if total == 0 {
		t.Error("no answers in groups")
	}
	if _, err := sys.Query(context.Background(), Query{Text: "", GroupByShape: true}); err == nil {
		t.Error("empty query should error")
	}
}

// treeShape renders a public answer tree's structure the way Shape does,
// as an independent check of the grouping.
func treeShape(n *TreeNode) string {
	if len(n.Children) == 0 {
		return n.Tuple.Table
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = treeShape(c)
	}
	sort.Strings(parts)
	return n.Tuple.Table + "(" + strings.Join(parts, ",") + ")"
}

func TestGroupAnswers(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(inner), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Query(context.Background(), Query{
		Text:         "soumen sunita",
		GroupByShape: true,
		Options:      &SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}, HeapSize: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 2 {
		t.Fatalf("need several answers, got %d", len(res.Answers))
	}
	total, last := 0, 0
	for _, g := range res.Groups {
		total += len(g.Answers)
		if g.Shape == "" {
			t.Error("empty shape")
		}
		// All members share the shape, and rank order holds across
		// groups: each group starts after the previous one's best.
		for _, a := range g.Answers {
			if s := treeShape(a.Tree); s != g.Shape {
				t.Errorf("member shape %s in group %s", s, g.Shape)
			}
		}
		if g.Answers[0].Rank <= last {
			t.Errorf("group %s starts at rank %d, after a group starting at %d", g.Shape, g.Answers[0].Rank, last)
		}
		last = g.Answers[0].Rank
	}
	if total != len(res.Answers) {
		t.Errorf("grouped %d of %d answers", total, len(res.Answers))
	}
	// The two coauthored-paper answers share one structural shape.
	want := "Paper(Writes(Author),Writes(Author))"
	found := false
	var shapes []string
	for _, g := range res.Groups {
		shapes = append(shapes, g.Shape)
		if g.Shape == want && len(g.Answers) >= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected shape %q with >= 2 members; shapes = %s", want, strings.Join(shapes, "; "))
	}
}

// TestAnswerShapeCanonical: a shape does not depend on the order of a
// node's children.
func TestAnswerShapeCanonical(t *testing.T) {
	p := cluster.Ref{Table: "Paper", RID: 0}
	w := cluster.Ref{Table: "Writes", RID: 0}
	a := cluster.Ref{Table: "Author", RID: 0}
	c := cluster.Ref{Table: "Cites", RID: 0}
	toWrites := cluster.Edge{From: p, To: w}
	toAuthor := cluster.Edge{From: w, To: a}
	toCites := cluster.Edge{From: p, To: c}
	a1 := &cluster.Answer{Root: p, Edges: []cluster.Edge{toWrites, toAuthor, toCites}}
	a2 := &cluster.Answer{Root: p, Edges: []cluster.Edge{toCites, toWrites, toAuthor}}
	if s1, s2 := shapeOf(a1), shapeOf(a2); s1 != s2 || s1 != "Paper(Cites,Writes(Author))" {
		t.Errorf("shapes %q and %q, want both Paper(Cites,Writes(Author))", s1, s2)
	}
}
