package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

func TestEdgeScoreLinearAndLog(t *testing.T) {
	if got := edgeScore(2, 1, false); got != 2 {
		t.Errorf("linear = %v", got)
	}
	if got := edgeScore(2, 2, false); got != 1 {
		t.Errorf("normalized min edge = %v, want 1", got)
	}
	if got := edgeScore(1, 1, true); math.Abs(got-1) > 1e-12 {
		t.Errorf("log of min edge = %v, want log2(2)=1", got)
	}
	if got := edgeScore(3, 1, true); math.Abs(got-2) > 1e-12 {
		t.Errorf("log2(1+3) = %v, want 2", got)
	}
	// Degenerate wmin guards.
	if got := edgeScore(5, 0, false); got != 5 {
		t.Errorf("wmin=0 fallback = %v", got)
	}
}

func TestEdgeScoreMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		w1, w2 := float64(a)+1, float64(b)+1
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		for _, logScale := range []bool{false, true} {
			if edgeScore(w1, 1, logScale) > edgeScore(w2, 1, logScale)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeScoreRangeAndMonotone(t *testing.T) {
	for _, logScale := range []bool{false, true} {
		prev := -1.0
		for w := 0.0; w <= 100; w += 10 {
			s := nodeScore(w, 100, logScale)
			if s < 0 || s > 1 {
				t.Errorf("nodeScore(%v) = %v out of [0,1]", w, s)
			}
			if s < prev {
				t.Errorf("nodeScore not monotone at %v (log=%v)", w, logScale)
			}
			prev = s
		}
		if got := nodeScore(100, 100, logScale); math.Abs(got-1) > 1e-12 {
			t.Errorf("max node score = %v, want 1", got)
		}
	}
	if nodeScore(5, 0, false) != 0 {
		t.Error("wmax=0 should score 0")
	}
}

func TestCombineScores(t *testing.T) {
	add := ScoreOptions{Lambda: 0.25}
	if got := CombineScores(0.8, 0.4, add); math.Abs(got-(0.75*0.8+0.25*0.4)) > 1e-12 {
		t.Errorf("additive = %v", got)
	}
	mul := ScoreOptions{Lambda: 0.5, Combine: Multiplicative}
	if got := CombineScores(0.64, 0.25, mul); math.Abs(got-0.64*0.5) > 1e-12 {
		t.Errorf("multiplicative = %v", got) // 0.64 * 0.25^0.5 = 0.32
	}
	// λ=0 multiplicative ignores node score entirely (0^0 guard).
	if got := CombineScores(0.5, 0, ScoreOptions{Lambda: 0, Combine: Multiplicative}); got != 0.5 {
		t.Errorf("λ=0 multiplicative = %v", got)
	}
	// λ=1 additive is pure node score.
	if got := CombineScores(0.9, 0.3, ScoreOptions{Lambda: 1}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("λ=1 additive = %v", got)
	}
}

func TestCombineScoresInUnitIntervalProperty(t *testing.T) {
	f := func(e, n, l uint8) bool {
		es := float64(e) / 255
		ns := float64(n) / 255
		lam := float64(l) / 255
		for _, comb := range []Combination{Additive, Multiplicative} {
			s := CombineScores(es, ns, ScoreOptions{Lambda: lam, Combine: comb})
			if s < -1e-12 || s > 1+1e-12 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreAnswerLeafCounting(t *testing.T) {
	// A node matching two search terms is counted once per term (§2.3).
	f := newBibFixture(t)
	p := f.node(t, "Paper", "ChakrabartiSD98")
	a1 := &Answer{Root: p, TermNodes: []graph.NodeID{p, p}}
	scoreAnswer(a1, f.g, ScoreOptions{Lambda: 1})
	// NScore = avg over {root, leaf, leaf} = nodeScore(p) since all equal.
	want := nodeScore(f.g.Prestige(p), f.g.MaxNodeWeight(), false)
	if math.Abs(a1.NScore-want) > 1e-12 {
		t.Errorf("NScore = %v, want %v", a1.NScore, want)
	}
	// Mixed root and leaves: average.
	leaf := f.node(t, "Author", "SoumenC")
	a2 := &Answer{Root: p, TermNodes: []graph.NodeID{leaf}}
	scoreAnswer(a2, f.g, ScoreOptions{Lambda: 1})
	wantAvg := (nodeScore(f.g.Prestige(p), f.g.MaxNodeWeight(), false) +
		nodeScore(f.g.Prestige(leaf), f.g.MaxNodeWeight(), false)) / 2
	if math.Abs(a2.NScore-wantAvg) > 1e-12 {
		t.Errorf("NScore = %v, want %v", a2.NScore, wantAvg)
	}
}

func TestScoreAnswerSingleNodeEScoreIsOne(t *testing.T) {
	f := newBibFixture(t)
	n := f.node(t, "Author", "MohanC")
	a := &Answer{Root: n, TermNodes: []graph.NodeID{n}}
	scoreAnswer(a, f.g, DefaultScoreOptions())
	if a.EScore != 1 {
		t.Errorf("EScore of single-node answer = %v, want 1", a.EScore)
	}
}

func TestCombinationString(t *testing.T) {
	if Additive.String() != "additive" || Multiplicative.String() != "multiplicative" {
		t.Error("Combination.String broken")
	}
}

func TestDefaultScoreOptions(t *testing.T) {
	o := DefaultScoreOptions()
	if o.Lambda != 0.2 || !o.EdgeLog || o.NodeLog || o.Combine != Additive {
		t.Errorf("defaults = %+v", o)
	}
}

// TestScoreOrderingUnderPrestige validates the §2.1 claim end to end: with
// node weights enabled, higher-prestige roots win among equal-proximity
// answers.
func TestScoreOrderingUnderPrestige(t *testing.T) {
	db := sqldb.NewDatabase()
	db.CreateTable(&sqldb.TableSchema{
		Name: "item",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "name", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"id"},
	})
	db.CreateTable(&sqldb.TableSchema{
		Name: "ref",
		Columns: []sqldb.Column{
			{Name: "item", Type: sqldb.TypeInt},
		},
		ForeignKeys: []sqldb.ForeignKey{{Column: "item", RefTable: "item"}},
	})
	db.Insert("item", []sqldb.Value{sqldb.Int(1), sqldb.Text("gadget popular")})
	db.Insert("item", []sqldb.Value{sqldb.Int(2), sqldb.Text("gadget obscure")})
	for i := 0; i < 5; i++ {
		db.Insert("ref", []sqldb.Value{sqldb.Int(1)})
	}
	db.Insert("ref", []sqldb.Value{sqldb.Int(2)})
	f := newFixture(t, db)
	answers, _, err := searchTerms(f.s, []string{"gadget"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	if f.g.RIDOf(answers[0].Root) != 0 {
		t.Error("popular item should rank first")
	}
	if answers[0].Score <= answers[1].Score {
		t.Error("scores should strictly order by prestige")
	}
}
