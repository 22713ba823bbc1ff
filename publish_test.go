package banks

// The cost a snapshot publish passes on to the next reader. Every Apply
// and Compact publishes a new core.Searcher; search arenas come from one
// process-wide pool, so the first query on the new snapshot runs on the
// arena the previous one warmed instead of building a 20 B × |V| arena
// and a few hundred iterator tables from nothing.

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
)

// TestFirstQueryAfterPublishAllocation: at paper scale (100 K nodes),
// after a warm name query, the first System.Query after one Apply
// allocates under 1 MB and the first after a Compact under 4 MB — the
// renumbered engine's node-key table and its cold match sets, no arena.
//
// It runs on one P: a sync.Pool keeps an item put on one P out of reach
// of a Get on another until it spills to the shared list, so with
// several Ps a single goroutine may miss its own arena whether or not a
// publish happened in between. A serving process with many in-flight
// queries holds an arena per P; one P measures the publish alone.
func TestFirstQueryAfterPublishAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db, err := datagen.BuildDBLP(datagen.PaperScaleDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(db), &SystemOptions{WALPath: filepath.Join(t.TempDir(), "p.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	q := Query{Text: strings.ToLower(db.Table("Author").Row(5000)[1].String())}
	query := func() (*Results, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sys.Query(ctx, q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("query %q: no answers", q.Text)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	// The first run builds the arena, the key table and the match sets;
	// recycled iterators then serve other origins than before, so the
	// second still widens a few iterator tables. The third is warm.
	query()
	query()
	_, warm := query()

	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "Pub1", "AuthorName": "Zeppelin Quasar"}),
		Insert("Writes", map[string]interface{}{"AuthorId": "Pub1", "PaperId": db.Table("Paper").Row(0)[0].String()}),
	}); err != nil {
		t.Fatal(err)
	}
	res, applied := query()
	if res.Stats.Pops == 0 {
		t.Fatal("the query after Apply did not search")
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	_, compacted := query()

	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%q: warm %.2f MB, first after Apply %.2f MB, first after Compact %.2f MB", q.Text, mb(warm), mb(applied), mb(compacted))
	if applied > 1<<20 {
		t.Errorf("first query after Apply allocated %.2f MB, ceiling 1 MB", mb(applied))
	}
	if compacted > 4<<20 {
		t.Errorf("first query after Compact allocated %.2f MB, ceiling 4 MB", mb(compacted))
	}
}
