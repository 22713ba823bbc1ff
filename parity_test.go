package banks

// Backend parity: System and Cluster answer through one query path, so
// every Query option — grouping, qualified and prefix terms, per-query
// budgets — must mean the same thing on both. A 1-partition cluster holds
// the whole graph, so there it must return exactly what the System
// returns; a multi-partition cluster must still honour every budget and
// qualifier rule.

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/web"
)

// sameBackendStats clears what legitimately differs between a System and
// a 1-partition cluster: the routing fields, and the store bytes faulted
// (the cluster serves from a store, the System from memory).
func sameBackendStats(st Stats) Stats {
	st.PartitionsTotal, st.PartitionsRouted, st.PartitionsPruned = 0, 0, 0
	st.PartitionLocalBound = false
	st.BytesFaulted = 0
	return st
}

func TestBackendParity(t *testing.T) {
	inner, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, cl1 := newClusterFixture(t, inner, 1)
	cl2, err := OpenCluster(sys.Database(), splitStore(t, sys, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl2.Close() })
	ctx := context.Background()
	opts := func(b Budget) *SearchOptions {
		return &SearchOptions{ExcludedRootTables: []string{"Writes", "Cites"}, HeapSize: 100, Budget: b}
	}

	// N=1: identical Results, answers, groups and stats alike.
	for _, row := range []struct {
		name      string
		q         Query
		exhausted string // the budget axis the row must cut on ("": none)
	}{
		{name: "plain", q: Query{Text: "sunita soumen", Options: opts(Budget{})}},
		{name: "GroupByShape", q: Query{Text: "sunita soumen", GroupByShape: true, Options: opts(Budget{})}},
		{name: "qualified+prefix", q: Query{Text: "author:sunita chakrab", Qualified: true, Prefix: true, Options: opts(Budget{})}},
		{name: "pop budget", q: Query{Text: "sunita soumen", Options: opts(Budget{MaxPops: 5})}, exhausted: "pops"},
		{name: "arc budget", q: Query{Text: "sunita soumen", Options: opts(Budget{MaxArcsScanned: 40})}, exhausted: "arcs"},
	} {
		t.Run(row.name, func(t *testing.T) {
			want, err := sys.Query(ctx, row.q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl1.Query(ctx, row.q)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if len(want.Answers) == 0 && row.exhausted == "" {
				t.Fatal("the System found no answers: the row checks nothing")
			}
			if want.Stats.BudgetReason != row.exhausted {
				t.Fatalf("System budget reason %q, want %q", want.Stats.BudgetReason, row.exhausted)
			}
			if row.q.GroupByShape && len(want.Groups) == 0 {
				t.Fatal("the System returned no groups")
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("answers differ\nSystem:  %s\nCluster: %s", renderAnswers(want.Answers), renderAnswers(got.Answers))
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) {
				t.Errorf("groups differ: System %d, Cluster %d", len(want.Groups), len(got.Groups))
			}
			if gs, ws := sameBackendStats(got.Stats), sameBackendStats(want.Stats); !reflect.DeepEqual(gs, ws) {
				t.Errorf("stats differ\nSystem:  %+v\nCluster: %+v", ws, gs)
			}
		})
	}

	// N=2: each leg honours the pop budget, and the merge reports the cut.
	t.Run("pop budget N=2", func(t *testing.T) {
		res, err := cl2.Query(ctx, Query{Text: "sunita soumen", Options: opts(Budget{MaxPops: 5})})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if !st.BudgetExhausted || st.BudgetReason != "pops" {
			t.Errorf("2-partition cluster did not report the pop budget: %+v", st)
		}
		if st.PartitionsRouted == 0 || st.Pops > 5*st.PartitionsRouted {
			t.Errorf("pops = %d over %d legs, want at most 5 a leg", st.Pops, st.PartitionsRouted)
		}
	})

	// Attribute qualifiers need rows, which partitions do not hold: the
	// System answers, every cluster refuses and names the term.
	t.Run("attribute qualifier", func(t *testing.T) {
		q := Query{Text: "authorname:sunita authorname:soumen", Qualified: true, Options: opts(Budget{})}
		res, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatal("the System found no answers for the attribute qualifier")
		}
		for name, cl := range map[string]*Cluster{"N=1": cl1, "N=2": cl2} {
			res, err := cl.Query(ctx, q)
			if err == nil {
				t.Errorf("%s: attribute qualifier answered %d, want an error", name, len(res.Answers))
			} else if !strings.Contains(err.Error(), "authorname:sunita") {
				t.Errorf("%s: error %q does not name the term", name, err)
			}
		}
	})
}

// TestBackendParitySlowLog: both front doors record the same wire stats
// in the slow-query log.
func TestBackendParitySlowLog(t *testing.T) {
	sys, cl := quickstartDoors(t)
	types := map[string]reflect.Type{}
	for name, search := range map[string]backend{"System": sys.search, "Cluster": cl.search} {
		var m *serve.Metrics
		h := newFrontDoor(&ServeOptions{SlowQuery: time.Nanosecond}, web.Config{
			DB:     sys.db.inner,
			Search: doorSearch(search, nil),
		}, func(mm *serve.Metrics) { m = mm })
		if rec := doorGet(h, "/search?q=sunita+soumen"); rec.Code != 200 {
			t.Fatalf("%s: status %d", name, rec.Code)
		}
		slow := m.SlowQueries()
		if len(slow) != 1 || slow[0].Detail == nil {
			t.Fatalf("%s: slow log = %+v, want one entry with stats", name, slow)
		}
		types[name] = reflect.TypeOf(slow[0].Detail)
	}
	if types["System"] != types["Cluster"] {
		t.Errorf("slow-log stats types differ: System %v, Cluster %v", types["System"], types["Cluster"])
	}
}
