package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// suiteFixture caches the small DBLP searcher across tests in this package
// (building it is the expensive part).
type suiteFixture struct {
	db      *sqldb.Database
	g       *graph.Graph
	s       *core.Searcher
	queries []Query
}

// The fixture is built exactly once under sync.Once so tests running in
// parallel (or helpers called from subtests) cannot race on the package
// global; fixtureErr carries a build failure to every caller.
var (
	fixtureOnce   sync.Once
	cachedFixture *suiteFixture
	fixtureErr    error
)

func getFixture(t *testing.T) *suiteFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		db, err := datagen.BuildDBLP(datagen.SmallDBLP())
		if err != nil {
			fixtureErr = err
			return
		}
		g, err := graph.Build(db, nil)
		if err != nil {
			fixtureErr = err
			return
		}
		ix, err := index.Build(db, g)
		if err != nil {
			fixtureErr = err
			return
		}
		s := core.NewSearcher(g, ix)
		queries, err := DBLPSuite(db, g)
		if err != nil {
			fixtureErr = err
			return
		}
		cachedFixture = &suiteFixture{db: db, g: g, s: s, queries: queries}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return cachedFixture
}

func TestDBLPSuiteShape(t *testing.T) {
	f := getFixture(t)
	if len(f.queries) != 7 {
		t.Errorf("suite has %d queries, want 7 (as in §5.3)", len(f.queries))
	}
	total := 0
	for _, q := range f.queries {
		if len(q.Ideals) == 0 {
			t.Errorf("query %s has no ideals", q.Name)
		}
		total += len(q.Ideals)
	}
	if total < 7 {
		t.Errorf("total ideals = %d", total)
	}
}

func TestQueryErrorAtBestSetting(t *testing.T) {
	f := getFixture(t)
	opts := DefaultDBLPOptions() // λ=0.2, EdgeLog — the paper's winner
	for _, q := range f.queries {
		raw, worst, ranks, err := QueryError(f.s, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if worst <= 0 {
			t.Errorf("query %s worst = %v", q.Name, worst)
		}
		if raw > worst {
			t.Errorf("query %s raw %v exceeds worst %v", q.Name, raw, worst)
		}
		t.Logf("query %-18s raw=%4.0f worst=%4.0f ranks=%v", q.Name, raw, worst, ranks)
	}
	scaled, err := ScaledError(f.s, f.queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~0 at this setting; give headroom for the
	// synthetic data.
	if scaled > 12 {
		t.Errorf("scaled error at λ=0.2+EdgeLog = %.1f, want <= 12", scaled)
	}
}

// TestFigure5Shape verifies the qualitative claims of Figure 5:
// λ=0.2+EdgeLog best (≈0), λ=1 worst (≈15 in the paper), λ=0 and λ=0.8 in
// between, and log scaling helping at good settings.
func TestFigure5Shape(t *testing.T) {
	f := getFixture(t)
	points, err := SweepFigure5(f.s, f.queries, DefaultDBLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	get := func(lambda float64, edgeLog bool) float64 {
		for _, p := range points {
			if p.Lambda == lambda && p.EdgeLog == edgeLog {
				return p.Scaled
			}
		}
		t.Fatalf("missing sweep point λ=%v log=%v", lambda, edgeLog)
		return 0
	}
	t.Log("\n" + FormatFigure5(points))

	best := get(0.2, true)
	if best > 10 {
		t.Errorf("λ=0.2+log error = %.1f, want near 0", best)
	}
	if w := get(1.0, true); w <= best {
		t.Errorf("λ=1 (%.1f) should be worse than λ=0.2 (%.1f)", w, best)
	}
	if w := get(1.0, false); w <= best {
		t.Errorf("λ=1 no-log (%.1f) should be worse than best (%.1f)", w, best)
	}
	if w := get(0, true); w < best {
		t.Errorf("λ=0 (%.1f) should not beat λ=0.2 (%.1f)", w, best)
	}
	// Log scaling helps at the good λ settings.
	if get(0.2, true) > get(0.2, false) {
		t.Errorf("edge log should help at λ=0.2: log=%.1f nolog=%.1f",
			get(0.2, true), get(0.2, false))
	}
	b := Best(points)
	if !(b.Lambda > 0 && b.Lambda < 1) {
		t.Errorf("best setting λ=%v; expected an interior λ", b.Lambda)
	}
}

// TestCombinationModeStability reproduces the §5.3 bullet: the combination
// mode (additive vs multiplicative) has almost no impact on error scores.
func TestCombinationModeStability(t *testing.T) {
	f := getFixture(t)
	for _, lambda := range []float64{0.2, 0.5} {
		add := DefaultDBLPOptions()
		add.Score = core.ScoreOptions{Lambda: lambda, EdgeLog: false}
		mul := DefaultDBLPOptions()
		mul.Score = core.ScoreOptions{Lambda: lambda, EdgeLog: false, Combine: core.Multiplicative}
		ea, err := ScaledError(f.s, f.queries, add)
		if err != nil {
			t.Fatal(err)
		}
		em, err := ScaledError(f.s, f.queries, mul)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(ea - em); diff > 15 {
			t.Errorf("λ=%v: additive err %.1f vs multiplicative %.1f (Δ=%.1f)", lambda, ea, em, diff)
		}
	}
}

// TestNodeLogStability reproduces the §5.3 bullet: node log-scaling gives
// the same ranking on these examples.
func TestNodeLogStability(t *testing.T) {
	f := getFixture(t)
	plain := DefaultDBLPOptions()
	plain.Score = core.ScoreOptions{Lambda: 0.2, EdgeLog: true, NodeLog: false}
	logged := DefaultDBLPOptions()
	logged.Score = core.ScoreOptions{Lambda: 0.2, EdgeLog: true, NodeLog: true}
	ep, err := ScaledError(f.s, f.queries, plain)
	if err != nil {
		t.Fatal(err)
	}
	el, err := ScaledError(f.s, f.queries, logged)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(ep - el); diff > 10 {
		t.Errorf("node log changed error too much: %.1f vs %.1f", ep, el)
	}
}

func TestSweepFullCoversEightCombinations(t *testing.T) {
	f := getFixture(t)
	points, err := SweepFull(f.s, f.queries, DefaultDBLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8*len(Lambdas) {
		t.Errorf("sweep points = %d, want %d", len(points), 8*len(Lambdas))
	}
	discarded := 0
	for _, p := range points {
		combine := "additive"
		if p.Mult {
			combine = "multiplicative"
		}
		t.Logf("lambda=%.1f edgeLog=%v nodeLog=%v combine=%s error=%.1f discarded=%v",
			p.Lambda, p.EdgeLog, p.NodeLog, combine, p.Scaled, p.Discarded())
		if p.Discarded() {
			discarded++
		}
	}
	// 3 of 8 combinations involve log+multiplicative (EdgeLog, NodeLog,
	// both) — the ones the paper discarded.
	if discarded != 3*len(Lambdas) {
		t.Errorf("discarded = %d, want %d", discarded, 3*len(Lambdas))
	}
}

func TestFormatFigure5(t *testing.T) {
	pts := []SweepPoint{
		{Lambda: 0.2, EdgeLog: true, Scaled: 1.5},
		{Lambda: 0.2, EdgeLog: false, Scaled: 7.5},
	}
	s := FormatFigure5(pts)
	if !strings.Contains(s, "lambda") || !strings.Contains(s, "0.2") {
		t.Errorf("FormatFigure5 = %q", s)
	}
}

func TestMissingIdealGetsRank11(t *testing.T) {
	f := getFixture(t)
	q := Query{
		Name:  "impossible",
		Terms: []string{"soumen", "sunita"},
		Ideals: []IdealAnswer{
			{Desc: "never matches", Match: func(*core.Answer, graph.View) bool { return false }},
		},
	}
	raw, worst, ranks, err := QueryError(f.s, q, DefaultDBLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0] != MissingRank {
		t.Errorf("rank = %d, want %d", ranks[0], MissingRank)
	}
	if raw != worst {
		t.Errorf("raw %v should equal worst %v for all-missing", raw, worst)
	}
}

func TestIdealConsumedOnce(t *testing.T) {
	f := getFixture(t)
	// Two identical ideals: the second must not reuse the first's answer.
	match := containsAll()
	q := Query{
		Name:  "dup-ideals",
		Terms: []string{"mohan"},
		Ideals: []IdealAnswer{
			{Desc: "any answer", Match: match},
			{Desc: "any answer again", Match: match},
		},
	}
	_, _, ranks, err := QueryError(f.s, q, DefaultDBLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) == 2 && ranks[0] == ranks[1] {
		t.Errorf("both ideals matched the same answer: ranks = %v", ranks)
	}
}
