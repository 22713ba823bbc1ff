package core_test

// Exact-count guards for iterator retirement at paper scale (100 K nodes).
// They check pops, not wall clock, so they are deterministic.

import (
	"context"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/sqldb"
)

// TestRetirementPaperScaleDisconnectedPair: an AuthorId pair whose first
// author wrote nothing has no answer. Its lone origin exhausts on its first
// pop, which retires every iterator of the other author, so the query ends
// within a few pops of seeding instead of sweeping the giant component (the
// run-to-exhaustion loop made 386 089 pops on this pair).
func TestRetirementPaperScaleDisconnectedPair(t *testing.T) {
	db, g, ix := paperScaleEngine(t)
	wrote := map[string]bool{}
	db.Table("Writes").Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		wrote[row[0].S] = true
		return true
	})
	lonely := ""
	db.Table("Author").Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		if !wrote[row[0].S] {
			lonely = row[0].S
			return false
		}
		return true
	})
	if lonely == "" {
		t.Fatal("every paper-scale author wrote a paper; the generator changed")
	}
	terms := []string{strings.ToLower(lonely), strings.ToLower(datagen.AuthorSunita)}
	answers, stats, err := core.NewSearcher(g, ix).Query(context.Background(), core.Request{Terms: terms}, dblpGoldenOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	origins := 0
	for _, m := range stats.MatchedNodes {
		origins += m
	}
	t.Logf("%v: %d origins, %d pops, %d retired", terms, origins, stats.Pops, stats.Retired)
	if len(answers) != 0 {
		t.Fatalf("disconnected pair returned %d answers", len(answers))
	}
	if stats.MatchedNodes[0] != 1 || origins < 3 {
		t.Fatalf("matched %v, want a lone author beside a published one", stats.MatchedNodes)
	}
	if stats.Pops > origins+4 {
		t.Errorf("pops = %d, want at most |origins|+4 = %d", stats.Pops, origins+4)
	}
	if stats.Retired == 0 || stats.BudgetExhausted {
		t.Errorf("retired = %d, budget exhausted = %v", stats.Retired, stats.BudgetExhausted)
	}
}

// TestRetirementPaperScaleConnectedPairPops: a coauthor pair lives in one
// component, so nothing is retired and the pop count is the one the
// paper's run-to-exhaustion loop makes, pinned as a number.
func TestRetirementPaperScaleConnectedPairPops(t *testing.T) {
	_, g, ix := paperScaleEngine(t)
	terms := []string{strings.ToLower(datagen.AuthorSoumen), strings.ToLower(datagen.AuthorSunita)}
	answers, stats, err := core.NewSearcher(g, ix).Query(context.Background(), core.Request{Terms: terms}, dblpGoldenOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v: %d answers, %d pops, %d arcs, %d retired", terms, len(answers), stats.Pops, stats.ArcsScanned, stats.Retired)
	const wantPops = 12170
	if len(answers) == 0 || stats.Pops != wantPops || stats.Retired != 0 {
		t.Errorf("%d answers, pops = %d, retired = %d; want answers, pops = %d, retired = 0",
			len(answers), stats.Pops, stats.Retired, wantPops)
	}
}
