package banks

// The engine and its database agree through one number: the database's
// write counter against the count the serving engine was built or folded
// at. These tests pin both sides of it — a write Apply did not make
// stops Apply before it writes anything and makes Compact rebuild, and
// Apply's own batches, rejected ones included, leave Compact on its fold.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestApplyRefusesAfterForeignWrite: after an INSERT made on the
// Database, a batch that writes a paper for the new author is refused
// with ErrStale, and so is every batch after it, with nothing written or
// journaled. Compact rebuilds, and then the same batch is accepted.
func TestApplyRefusesAfterForeignWrite(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "m.wal")
	sys := newMutableDBLPOpts(t, SystemOptions{WALPath: walPath})
	db := sys.Database()
	ctx := context.Background()
	db.MustExec("INSERT INTO Author (AuthorId, AuthorName) VALUES ('Mallory', 'Mallory')")

	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	forMallory := []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "MalP", "PaperName": "forged ledger", "Year": 2002}),
		Insert("Writes", map[string]interface{}{"AuthorId": "Mallory", "PaperId": "MalP"}),
	}
	unrelated := []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "Unrel", "PaperName": "quiet harbour", "Year": 2003}),
	}
	shape, size := tableShape(db), walSize()
	for _, b := range []namedBatch{{"the batch for Mallory", forMallory}, {"an unrelated batch", unrelated}, {"the batch for Mallory again", forMallory}} {
		if _, err := sys.Apply(ctx, b.muts); !errors.Is(err, ErrStale) {
			t.Fatalf("%s: err = %v, want ErrStale", b.name, err)
		}
		if got := tableShape(db); got != shape {
			t.Fatalf("%s: refused, but the database changed:\nbefore %s\nafter  %s", b.name, shape, got)
		}
		if got := walSize(); got != size {
			t.Fatalf("%s: refused, but the WAL grew from %d to %d bytes", b.name, size, got)
		}
	}

	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Apply(ctx, forMallory); err != nil {
		t.Fatalf("the batch for Mallory after Compact: %v", err)
	}
	res, err := sys.Query(ctx, Query{Text: "mallory"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("mallory is not searchable after Compact")
	}
	checkQueryParity(t, sys, []string{"mallory", "mallory ledger"}, "after Compact")
}

// TestCompactSeesForeignInsert: Compact over live deltas picks up a row
// inserted on the Database: it rebuilds from the database at once,
// without folding the deltas aside first.
func TestCompactSeesForeignInsert(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "Live1", "PaperName": "meridian sonnet", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}
	sys.Database().MustExec("INSERT INTO Author (AuthorId, AuthorName) VALUES ('Zyx', 'zyxwvmallory')")
	sys.compactHook = func() { t.Error("Compact folded the deltas aside over a database they are behind") }
	err := sys.Compact()
	sys.compactHook = nil
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(ctx, Query{Text: "zyxwvmallory"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("a row inserted on the Database is not searchable after Compact")
	}
	checkQueryParity(t, sys, append([]string{"zyxwvmallory", "meridian sonnet"}, dblpQueries...), "after Compact")
}

// TestCompactRebuildsOnWriteDuringBuild: a write made on the Database
// while Compact builds aside is not in the tail the fold would replay,
// so Compact rebuilds; both it and a batch Apply made in the same window
// are searchable afterwards.
func TestCompactRebuildsOnWriteDuringBuild(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "Pre1", "PaperName": "meridian sonnet", "Year": 2001}),
	}); err != nil {
		t.Fatal(err)
	}
	var hookErr error
	sys.compactHook = func() {
		if _, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "Tail1", "PaperName": "tundra cipher", "Year": 2002}),
		}); err != nil {
			hookErr = err
			return
		}
		_, hookErr = sys.Database().Exec("INSERT INTO Author (AuthorId, AuthorName) VALUES ('Zyx', 'zyxwvmallory')")
	}
	err := sys.Compact()
	sys.compactHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if n := sys.PendingMutations(); n != 0 {
		t.Fatalf("%d pending mutations: Compact folded instead of rebuilding", n)
	}
	for _, q := range []string{"zyxwvmallory", "tundra cipher"} {
		res, err := sys.Query(ctx, Query{Text: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%q: no answers after Compact", q)
		}
	}
	checkQueryParity(t, sys, append([]string{"zyxwvmallory", "tundra cipher"}, dblpQueries...), "after Compact")
}

// TestCompactPicksUpNewTable: a table created on the Database joins the
// graph at the next Compact, and Apply can write to it from then on.
func TestCompactPicksUpNewTable(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	tables := sys.GraphStats().Tables
	sys.Database().MustExec("CREATE TABLE Venue (VenueId TEXT PRIMARY KEY, VenueName TEXT)")
	sys.Database().MustExec("INSERT INTO Venue VALUES ('V1', 'quokka symposium')")
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Venue", map[string]interface{}{"VenueId": "V2", "VenueName": "wombat workshop"}),
	}); !errors.Is(err, ErrStale) {
		t.Fatalf("Apply to a table the engine has not seen: err = %v, want ErrStale", err)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := sys.GraphStats().Tables; got != tables+1 {
		t.Fatalf("graph has %d tables after Compact, want %d", got, tables+1)
	}
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Venue", map[string]interface{}{"VenueId": "V2", "VenueName": "wombat workshop"}),
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"quokka", "wombat"} {
		res, err := sys.Query(ctx, Query{Text: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%q: no answers from the new table", q)
		}
	}
}

// TestCompactFoldsAfterRejectedBatches: Apply batches, with every batch
// TestApplyValidation rejects among them, move the database only by the
// accepted ones, so with no foreign write Compact still folds rather
// than rebuilds.
func TestCompactFoldsAfterRejectedBatches(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	for i, b := range rejectedBatches(t, sys) {
		if _, err := sys.Apply(ctx, b.muts); err == nil || errors.Is(err, ErrStale) {
			t.Fatalf("%s: err = %v, want a rejection", b.name, err)
		}
		if _, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "Kept" + string(rune('A'+i)), "PaperName": "meridian sonnet", "Year": 2001}),
		}); err != nil {
			t.Fatalf("the batch after %s: %v", b.name, err)
		}
	}
	folded := false
	sys.compactHook = func() { folded = true }
	err := sys.Compact()
	sys.compactHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !folded {
		t.Fatal("Compact rebuilt from the database; only Apply wrote to it")
	}
	checkQueryParity(t, sys, append([]string{"meridian sonnet", "plague"}, dblpQueries...), "after the fold")
}
