package banks

// Live mutations must be invisible at the query level: a system serving
// base + WAL-backed delta overlays has to answer exactly like a system
// rebuilt from scratch over the same rows. These tests pin that parity on
// randomized mutation batches over both generators, plus the
// crash-recovery, validation and lifecycle contracts around it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/sqldb"
)

// treeSig renders a connection tree canonically (children sorted), so two
// answers compare by structure regardless of emission order.
func treeSig(n *TreeNode) string {
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = fmt.Sprintf("%.9f>%s", c.EdgeWeight, treeSig(c))
	}
	sort.Strings(kids)
	return fmt.Sprintf("%s/%d[%s]", n.Tuple.Table, n.Tuple.RID, strings.Join(kids, ","))
}

// canonicalAnswers reduces a result list to comparable keys: scores
// rounded to 9 decimals, answers within one score tie sorted canonically,
// and — when the list is full (possibly truncated mid-tie at TopK) — the
// final tie group dropped, since which members of a tied group survive
// truncation is legitimately snapshot-dependent.
func canonicalAnswers(res *Results, topK int) []string {
	type ka struct {
		score string
		sig   string
	}
	keys := make([]ka, len(res.Answers))
	for i, a := range res.Answers {
		keys[i] = ka{fmt.Sprintf("%.9f", a.Score), treeSig(a.Tree)}
	}
	var out []string
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j].score == keys[i].score {
			j++
		}
		if j == len(keys) && len(keys) == topK {
			break // truncated final tie group
		}
		group := make([]string, 0, j-i)
		for _, k := range keys[i:j] {
			group = append(group, k.score+"|"+k.sig)
		}
		sort.Strings(group)
		out = append(out, group...)
		i = j
	}
	return out
}

// liveRIDs returns the live rids of a table.
func liveRIDs(db *Database, table string) []int64 {
	var rids []int64
	db.Internal().Table(table).Scan(func(rid sqldb.RID, _ []sqldb.Value) bool {
		rids = append(rids, int64(rid))
		return true
	})
	return rids
}

// pkValues returns the primary-key values of a table's live rows.
func pkValues(db *Database, table string) []string {
	tbl := db.Internal().Table(table)
	pkIdx := tbl.Schema().ColumnIndex(tbl.Schema().PrimaryKey[0])
	var vals []string
	tbl.Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		vals = append(vals, row[pkIdx].S)
		return true
	})
	return vals
}

var mutWords = []string{
	"zeppelin", "quasar", "obelisk", "meridian", "tundra", "sonnet",
	"glacier", "cipher", "lantern", "mosaic",
}

// randomDBLPBatch builds one valid mutation batch against the current
// database state: inserts of authors/papers/links (sometimes referencing
// a row inserted earlier in the same batch), text-only title updates,
// FK rewires, and link deletions. allowDelete=false keeps the rid layout
// reproducible by a DumpSQL/ExecScript round trip (tombstone gaps do not
// survive a dump), which the store/WAL recovery tests rely on.
func randomDBLPBatch(rng *rand.Rand, db *Database, serial *int, allowDelete bool) []Mutation {
	var batch []Mutation
	n := 1 + rng.Intn(4)
	cases := 6
	if !allowDelete {
		cases = 5
	}
	for len(batch) < n {
		switch rng.Intn(cases) {
		case 0: // new author, sometimes with a paper link in the same batch
			*serial++
			id := fmt.Sprintf("MutA%d", *serial)
			name := mutWords[rng.Intn(len(mutWords))] + " " + mutWords[rng.Intn(len(mutWords))]
			batch = append(batch, Insert("Author", map[string]interface{}{"AuthorId": id, "AuthorName": name}))
			if papers := pkValues(db, "Paper"); len(papers) > 0 && rng.Intn(2) == 0 {
				batch = append(batch, Insert("Writes", map[string]interface{}{
					"AuthorId": id, "PaperId": papers[rng.Intn(len(papers))],
				}))
			}
		case 1: // new paper
			*serial++
			id := fmt.Sprintf("MutP%d", *serial)
			title := mutWords[rng.Intn(len(mutWords))] + " " + mutWords[rng.Intn(len(mutWords))]
			batch = append(batch, Insert("Paper", map[string]interface{}{
				"PaperId": id, "PaperName": title, "Year": 2000 + rng.Intn(3),
			}))
		case 2: // new citation between existing papers
			papers := pkValues(db, "Paper")
			if len(papers) < 2 {
				continue
			}
			batch = append(batch, Insert("Cites", map[string]interface{}{
				"Citing": papers[rng.Intn(len(papers))], "Cited": papers[rng.Intn(len(papers))],
			}))
		case 3: // text-only title update
			rids := liveRIDs(db, "Paper")
			if len(rids) == 0 {
				continue
			}
			title := mutWords[rng.Intn(len(mutWords))] + " " + mutWords[rng.Intn(len(mutWords))]
			batch = append(batch, Update("Paper", rids[rng.Intn(len(rids))], map[string]interface{}{"PaperName": title}))
		case 4: // FK rewire: point a Writes row at another paper
			rids := liveRIDs(db, "Writes")
			papers := pkValues(db, "Paper")
			if len(rids) == 0 || len(papers) == 0 {
				continue
			}
			batch = append(batch, Update("Writes", rids[rng.Intn(len(rids))], map[string]interface{}{
				"PaperId": papers[rng.Intn(len(papers))],
			}))
		case 5: // drop a link row
			table := "Cites"
			if rng.Intn(2) == 0 {
				table = "Writes"
			}
			rids := liveRIDs(db, table)
			if len(rids) == 0 {
				continue
			}
			batch = append(batch, Delete(table, rids[rng.Intn(len(rids))]))
		}
	}
	return batch
}

// randomTPCDBatch is the order-catalog counterpart.
func randomTPCDBatch(rng *rand.Rand, db *Database, serial *int) []Mutation {
	var batch []Mutation
	n := 1 + rng.Intn(4)
	intPK := func(table string) []int64 {
		tbl := db.Internal().Table(table)
		pkIdx := tbl.Schema().ColumnIndex(tbl.Schema().PrimaryKey[0])
		var vals []int64
		tbl.Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
			vals = append(vals, row[pkIdx].I)
			return true
		})
		return vals
	}
	for len(batch) < n {
		switch rng.Intn(5) {
		case 0: // new order, sometimes with a line item in the same batch
			custs := intPK("customer")
			if len(custs) == 0 {
				continue
			}
			*serial++
			key := int64(9_000_000 + *serial)
			batch = append(batch, Insert("orders", map[string]interface{}{
				"orderkey": key, "custkey": custs[rng.Intn(len(custs))],
			}))
			parts, supps := intPK("part"), intPK("supplier")
			if len(parts) > 0 && len(supps) > 0 && rng.Intn(2) == 0 {
				batch = append(batch, Insert("lineitem", map[string]interface{}{
					"orderkey": key, "partkey": parts[rng.Intn(len(parts))], "suppkey": supps[rng.Intn(len(supps))],
				}))
			}
		case 1: // rename a part (text-only)
			rids := liveRIDs(db, "part")
			if len(rids) == 0 {
				continue
			}
			name := mutWords[rng.Intn(len(mutWords))] + " " + mutWords[rng.Intn(len(mutWords))]
			batch = append(batch, Update("part", rids[rng.Intn(len(rids))], map[string]interface{}{"name": name}))
		case 2: // rewire a line item to another supplier
			rids := liveRIDs(db, "lineitem")
			supps := intPK("supplier")
			if len(rids) == 0 || len(supps) == 0 {
				continue
			}
			batch = append(batch, Update("lineitem", rids[rng.Intn(len(rids))], map[string]interface{}{
				"suppkey": supps[rng.Intn(len(supps))],
			}))
		case 3: // drop a line item
			rids := liveRIDs(db, "lineitem")
			if len(rids) == 0 {
				continue
			}
			batch = append(batch, Delete("lineitem", rids[rng.Intn(len(rids))]))
		case 4: // order an order to another customer
			rids := liveRIDs(db, "orders")
			custs := intPK("customer")
			if len(rids) == 0 || len(custs) == 0 {
				continue
			}
			batch = append(batch, Update("orders", rids[rng.Intn(len(rids))], map[string]interface{}{
				"custkey": custs[rng.Intn(len(custs))],
			}))
		}
	}
	return batch
}

// checkQueryParity runs the query set on the live system and on a fresh
// from-scratch rebuild over the same rows, twice each (cold, then
// cache-warm), and requires identical canonical answers.
func checkQueryParity(t *testing.T, live *System, queries []string, label string) {
	t.Helper()
	ref, err := NewSystem(live.Database(), &SystemOptions{
		DisableBackEdgeScaling: live.opts.DisableBackEdgeScaling,
	})
	if err != nil {
		t.Fatalf("%s: reference rebuild: %v", label, err)
	}
	const topK = 10
	ctx := context.Background()
	for _, text := range queries {
		q := Query{Text: text}
		for _, pass := range []string{"cold", "warm"} {
			got, err := live.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: live query %q (%s): %v", label, text, pass, err)
			}
			want, err := ref.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: reference query %q: %v", label, text, err)
			}
			gotK, wantK := canonicalAnswers(got, topK), canonicalAnswers(want, topK)
			if fmt.Sprint(gotK) != fmt.Sprint(wantK) {
				t.Fatalf("%s: query %q (%s) diverged from rebuild:\nlive:    %v\nrebuild: %v",
					label, text, pass, gotK, wantK)
			}
		}
	}
}

var dblpQueries = []string{
	"sunita soumen",
	"mohan transaction",
	"zeppelin",
	"quasar glacier",
}

func TestApplyParityDBLP(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	bdb := WrapDatabase(db)
	sys, err := NewSystem(bdb, &SystemOptions{WALPath: filepath.Join(t.TempDir(), "m.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(1))
	serial := 0
	for batchNo := 0; batchNo < 8; batchNo++ {
		batch := randomDBLPBatch(rng, bdb, &serial, true)
		if _, err := sys.Apply(context.Background(), batch); err != nil {
			t.Fatalf("batch %d (%v): %v", batchNo, batch, err)
		}
		checkQueryParity(t, sys, dblpQueries, fmt.Sprintf("batch %d", batchNo))
	}
	if sys.PendingMutations() == 0 {
		t.Fatal("no pending mutations after 8 applied batches")
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := sys.PendingMutations(); n != 0 {
		t.Fatalf("%d pending mutations after Compact", n)
	}
	checkQueryParity(t, sys, dblpQueries, "post-compaction")
}

func TestApplyParityTPCD(t *testing.T) {
	db, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	bdb := WrapDatabase(db)
	sys, err := NewSystem(bdb, &SystemOptions{WALPath: filepath.Join(t.TempDir(), "m.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	queries := []string{"anodized bearing", "zeppelin", "customer order"}
	rng := rand.New(rand.NewSource(2))
	serial := 0
	for batchNo := 0; batchNo < 5; batchNo++ {
		batch := randomTPCDBatch(rng, bdb, &serial)
		if _, err := sys.Apply(context.Background(), batch); err != nil {
			t.Fatalf("batch %d (%v): %v", batchNo, batch, err)
		}
		checkQueryParity(t, sys, queries, fmt.Sprintf("batch %d", batchNo))
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	checkQueryParity(t, sys, queries, "post-compaction")
}

// TestCrashRecovery pins the §durability contract: mutations journaled
// after the last compaction survive a crash. The store holds the
// compacted engine (with its WAL sequence); the database is restored to
// its compaction-time rows; OpenSystem replays only the journal tail and
// serves the same answers the pre-crash system did — without a rebuild.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "engine.store")
	walPath := filepath.Join(dir, "m.wal")

	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	bdb := WrapDatabase(db)
	sys, err := NewSystem(bdb, &SystemOptions{StorePath: storePath, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	serial := 0
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Apply(ctx, randomDBLPBatch(rng, bdb, &serial, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}

	// The database as of compaction time — what an operator's dump holds.
	var dump bytes.Buffer
	if err := bdb.DumpSQL(&dump); err != nil {
		t.Fatal(err)
	}

	// More mutations after compaction: journaled, not compacted.
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		res, err := sys.Apply(ctx, randomDBLPBatch(rng, bdb, &serial, true))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = res.Seq
	}
	expected := map[string][]string{}
	for _, q := range dblpQueries {
		res, err := sys.Query(ctx, Query{Text: q})
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = canonicalAnswers(res, 10)
	}
	// Crash: the process dies here; sys is abandoned, not compacted.
	sys.Close()

	// Recovery: restore the database from the compaction-time dump, open
	// the store, and let the WAL tail replay.
	db2 := NewDatabase()
	if err := db2.ExecScript(dump.String()); err != nil {
		t.Fatal(err)
	}
	sys2, err := OpenSystem(storePath, db2, &SystemOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if n := sys2.PendingMutations(); n == 0 {
		t.Fatal("recovery replayed no mutations; the WAL tail was lost")
	}
	for _, q := range dblpQueries {
		res, err := sys2.Query(ctx, Query{Text: q})
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalAnswers(res, 10); fmt.Sprint(got) != fmt.Sprint(expected[q]) {
			t.Fatalf("query %q after recovery diverged:\ngot:  %v\nwant: %v", q, got, expected[q])
		}
	}
	// The journal keeps its sequence across recovery.
	res, err := sys2.Apply(ctx, randomDBLPBatch(rng, db2, &serial, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq <= lastSeq {
		t.Fatalf("post-recovery Apply got seq %d, want > %d", res.Seq, lastSeq)
	}
	checkQueryParity(t, sys2, dblpQueries, "post-recovery")
}

// TestNewSystemReplaysWAL covers the store-less bootstrap: a database
// restored to the journal's base state plus the WAL reproduces the
// mutated system.
func TestNewSystemReplaysWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "m.wal")
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	bdb := WrapDatabase(db)
	var dump bytes.Buffer
	if err := bdb.DumpSQL(&dump); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(bdb, &SystemOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "Zep1", "AuthorName": "Zeppelin Quasar"}),
	}); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Query(ctx, Query{Text: "zeppelin"})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()

	db2 := NewDatabase()
	if err := db2.ExecScript(dump.String()); err != nil {
		t.Fatal(err)
	}
	sys2, err := NewSystem(db2, &SystemOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	got, err := sys2.Query(ctx, Query{Text: "zeppelin"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) == 0 || fmt.Sprint(canonicalAnswers(got, 10)) != fmt.Sprint(canonicalAnswers(want, 10)) {
		t.Fatalf("bootstrap replay lost the journaled insert: %v vs %v", canonicalAnswers(got, 10), canonicalAnswers(want, 10))
	}
}

func newMutableDBLP(t *testing.T) *System {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(db), &SystemOptions{WALPath: filepath.Join(t.TempDir(), "m.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// referencedAuthorRID finds an author some Writes row references, so the
// delete-restrict rejection is deterministic.
func referencedAuthorRID(t *testing.T, db *Database) int64 {
	t.Helper()
	writes := db.Internal().Table("Writes")
	aidIdx := writes.Schema().ColumnIndex("AuthorId")
	var aid sqldb.Value
	writes.Scan(func(_ sqldb.RID, row []sqldb.Value) bool {
		aid = row[aidIdx]
		return false
	})
	rid := db.Internal().Table("Author").LookupPK([]sqldb.Value{aid})
	if rid < 0 {
		t.Fatal("no referenced author found")
	}
	return int64(rid)
}

// tableShape renders every table's live row count and next rid, so two
// shapes differ if a write landed, even one whose row was deleted again.
func tableShape(db *Database) string {
	var b strings.Builder
	for _, name := range db.Internal().TableNames() {
		tbl := db.Internal().Table(name)
		fmt.Fprintf(&b, "%s len=%d next=%d; ", name, tbl.Len(), tbl.Cap())
	}
	return b.String()
}

// namedBatch is one Apply batch with a label for failure messages.
type namedBatch struct {
	name string
	muts []Mutation
}

// rejectedBatches applies an author and a paper nothing references, then
// returns batches over the small DBLP database that Apply must reject:
// at resolution, by the database at the first or a later write, and by
// the journal after every write landed.
func rejectedBatches(t *testing.T, sys *System) []namedBatch {
	t.Helper()
	writesRID := liveRIDs(sys.Database(), "Writes")[0]
	// An author and a paper nothing references, whose keys may change.
	lone, err := sys.Apply(context.Background(), []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "Lone", "AuthorName": "hermit"}),
		Insert("Paper", map[string]interface{}{"PaperId": "P11", "PaperName": "solitude"}),
	})
	if err != nil {
		t.Fatal(err)
	}

	bad := []namedBatch{
		{"empty batch", nil},
		{"unknown table", []Mutation{Insert("Venue", map[string]interface{}{"x": 1})}},
		{"unknown column", []Mutation{Insert("Author", map[string]interface{}{"AuthorId": "X", "Nick": "x"})}},
		{"missing not-null", []Mutation{Insert("Author", map[string]interface{}{"AuthorName": "x"})}},
		{"duplicate key", []Mutation{Insert("Author", map[string]interface{}{"AuthorId": datagen.AuthorSoumen, "AuthorName": "dup"})}},
		{"dangling fk", []Mutation{Insert("Writes", map[string]interface{}{"AuthorId": "NoSuchAuthor", "PaperId": datagen.PaperChakrabartiSD98})}},
		{"delete referenced", []Mutation{Delete("Author", referencedAuthorRID(t, sys.Database()))}},
		{"unknown row", []Mutation{Update("Paper", 1<<30, map[string]interface{}{"PaperName": "x"})}},
		{"insert with rid", []Mutation{{Op: MutationInsert, Table: "Author", RID: 3, Set: map[string]interface{}{"AuthorId": "X"}}}},
		{"delete with values", []Mutation{{Op: MutationDelete, Table: "Writes", RID: writesRID, Set: map[string]interface{}{"x": 1}}}},
		// Batches the database rejects after an earlier write landed, and
		// one only the journal rejects: each must be rolled back whole.
		{"null key on update", []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "PlagueP", "PaperName": "plague"}),
			Update("Author", lone.RIDs[0], map[string]interface{}{"AuthorId": nil}),
		}},
		{"duplicate key on update", []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "P12", "PaperName": "plague"}),
			Update("Paper", lone.RIDs[1], map[string]interface{}{"PaperId": "P12"}),
		}},
		{"text over the journal's limit", []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": "LongP", "PaperName": "plague " + strings.Repeat("x", 1<<20+1-len("plague "))}),
		}},
		{"delete target of same-batch insert", []Mutation{
			Insert("Cites", map[string]interface{}{"Citing": datagen.PaperChakrabartiSD98, "Cited": datagen.PaperGrayTransaction}),
		}},
	}
	// The last case needs a concrete referenced row delete after the insert.
	paperRID := int64(-1)
	sys.Database().Internal().Table("Paper").Scan(func(rid sqldb.RID, row []sqldb.Value) bool {
		if row[0].S == datagen.PaperGrayTransaction {
			paperRID = int64(rid)
			return false
		}
		return true
	})
	bad[len(bad)-1].muts = append(bad[len(bad)-1].muts, Delete("Paper", paperRID))
	return bad
}

func TestApplyValidation(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	bad := rejectedBatches(t, sys)
	nextAuthor := sys.Database().Internal().Table("Author").Cap()
	for _, tc := range bad {
		before := tableShape(sys.Database())
		if _, err := sys.Apply(ctx, tc.muts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if after := tableShape(sys.Database()); after != before {
			t.Errorf("%s: rejected (%v) but the database changed:\nbefore %s\nafter  %s", tc.name, err, before, after)
		}
	}
	// Rejections must not poison the system, nor use up a rid.
	res, err := sys.Apply(ctx, []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "OK1", "AuthorName": "fine"}),
	})
	if err != nil {
		t.Fatalf("valid batch after rejected ones: %v", err)
	}
	if res.RIDs[0] != int64(nextAuthor) {
		t.Errorf("insert after rejected batches got rid %d, want %d", res.RIDs[0], nextAuthor)
	}
	if q, err := sys.Query(ctx, Query{Text: "plague"}); err != nil {
		t.Fatal(err)
	} else if len(q.Answers) != 0 {
		t.Fatalf("a rejected batch's row is searchable: %d answers", len(q.Answers))
	}

	// Intra-batch dependencies that must pass: reference a row inserted
	// in the same batch; delete a row whose referrers die first.
	res, err = sys.Apply(ctx, []Mutation{
		Insert("Paper", map[string]interface{}{"PaperId": "IntraP", "PaperName": "intra batch"}),
		Insert("Cites", map[string]interface{}{"Citing": "IntraP", "Cited": "IntraP"}),
	})
	if err != nil {
		t.Fatalf("intra-batch insert dependency rejected: %v", err)
	}
	citesRID, paperRID := res.RIDs[1], res.RIDs[0]
	if _, err := sys.Apply(ctx, []Mutation{
		Delete("Cites", citesRID),
		Delete("Paper", paperRID),
	}); err != nil {
		t.Fatalf("delete-referrers-first batch rejected: %v", err)
	}
}

func TestApplyRequiresWAL(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(WrapDatabase(db), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Apply(context.Background(), []Mutation{Delete("Writes", liveRIDs(sys.Database(), "Writes")[0])}); err == nil {
		t.Fatal("Apply without WALPath accepted")
	}
}

func TestWALRejectsPrestigeDamping(t *testing.T) {
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(WrapDatabase(db), &SystemOptions{
		WALPath:         filepath.Join(t.TempDir(), "m.wal"),
		PrestigeDamping: 0.85,
	})
	if err == nil {
		t.Fatal("WALPath + PrestigeDamping accepted; incremental PageRank is impossible")
	}
}

// TestRejectedBatchLeavesStateClean pins that Apply is all-or-nothing: a
// batch rejected at its first mutation, by the database mid-batch, or by
// the journal after all its writes landed changes nothing — no table's
// length, no rid the next insert gets, no journal record — and the
// system answers in exact parity with a rebuild, live and after Compact
// and recovery from the store and the WAL.
func TestRejectedBatchLeavesStateClean(t *testing.T) {
	dir := t.TempDir()
	storePath, walPath := filepath.Join(dir, "engine.store"), filepath.Join(dir, "m.wal")
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	bdb := WrapDatabase(db)
	sys, err := NewSystem(bdb, &SystemOptions{StorePath: storePath, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "Ephemeral", "AuthorName": "zeppelin obelisk"}),
	}); err != nil {
		t.Fatal(err)
	}

	lantern := func(id string) Mutation {
		return Insert("Paper", map[string]interface{}{"PaperId": id, "PaperName": "lantern mosaic"})
	}
	overLong := Insert("Paper", map[string]interface{}{"PaperId": "LongP", "PaperName": strings.Repeat("x", 1<<20+1)})
	serial := 0
	reject := func(name string, muts ...Mutation) {
		t.Helper()
		before, next := tableShape(bdb), db.Table("Paper").Cap()
		if _, err := sys.Apply(ctx, muts); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if after := tableShape(bdb); after != before {
			t.Fatalf("%s: rejected, but the database changed:\nbefore %s\nafter  %s", name, before, after)
		}
		serial++
		res, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": fmt.Sprintf("Kept%d", serial), "PaperName": "meridian sonnet"}),
		})
		if err != nil {
			t.Fatalf("%s: the next batch: %v", name, err)
		}
		if res.RIDs[0] != int64(next) {
			t.Fatalf("%s: the next insert got rid %d, want %d", name, res.RIDs[0], next)
		}
	}
	reject("at mutation 0", Insert("Paper", map[string]interface{}{"PaperName": "lantern mosaic"}))
	reject("mid-batch", lantern("EphP"), Delete("Paper", 1<<30))
	reject("by the journal", lantern("EphP"), overLong)

	if q, err := sys.Query(ctx, Query{Text: "lantern"}); err != nil {
		t.Fatal(err)
	} else if len(q.Answers) != 0 {
		t.Fatal("a rejected batch's insert is visible to queries")
	}
	if q, err := sys.Query(ctx, Query{Text: "zeppelin"}); err != nil {
		t.Fatal(err)
	} else if len(q.Answers) == 0 {
		t.Fatal("author from the earlier committed batch vanished")
	}
	queries := append([]string{"lantern", "meridian sonnet"}, dblpQueries...)
	checkQueryParity(t, sys, queries, "after rejected batches")

	// The store holds the database as of this dump; the journal holds
	// what follows, which must be the accepted batches only.
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := bdb.DumpSQL(&dump); err != nil {
		t.Fatal(err)
	}
	reject("by the journal, after Compact", lantern("EphQ"), overLong)
	reject("mid-batch, after Compact", lantern("EphQ"), lantern("EphQ"))
	want := tableShape(bdb)
	sys.Close()

	db2 := NewDatabase()
	if err := db2.ExecScript(dump.String()); err != nil {
		t.Fatal(err)
	}
	sys2, err := OpenSystem(storePath, db2, &SystemOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if got := tableShape(db2); got != want {
		t.Fatalf("recovery replayed a different database:\ngot  %s\nwant %s", got, want)
	}
	checkQueryParity(t, sys2, queries, "after Compact and recovery")
}

// TestConcurrentApplyRollback runs readers that search and render
// through ServeHandler beside one writer that alternates accepted batches
// with batches the database or the journal rejects. Under -race it shows
// that a rollback and the renderer's reads of the same tables are
// ordered by the database lock; and that rolled-back inserts give their
// rids back, reach no reader and leave the system in parity with a
// rebuild.
func TestConcurrentApplyRollback(t *testing.T) {
	sys := newMutableDBLP(t)
	ts := httptest.NewServer(sys.ServeHandler(nil))
	defer ts.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	paths := []string{"/search?q=sunita+soumen", "/search?q=lantern", "/search?q=meridian+sonnet", "/browse?table=paper"}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", paths[i%len(paths)], resp.StatusCode, body)
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// At least 20 rounds, and on until the readers have overlapped some.
	next := int64(sys.Database().Internal().Table("Paper").Cap())
	for i := 0; i < 20 || served.Load() < 20 && i < 500; i++ {
		res, err := sys.Apply(ctx, []Mutation{
			Insert("Paper", map[string]interface{}{"PaperId": fmt.Sprintf("CR%d", i), "PaperName": "meridian sonnet"}),
		})
		if err != nil {
			t.Fatalf("round %d: accepted batch: %v", i, err)
		}
		if res.RIDs[0] != next+int64(i) {
			t.Fatalf("round %d: insert got rid %d, want %d", i, res.RIDs[0], next+int64(i))
		}
		bad := []Mutation{Insert("Paper", map[string]interface{}{"PaperId": fmt.Sprintf("CRx%d", i), "PaperName": "lantern mosaic"})}
		if i%2 == 0 {
			bad = append(bad, Insert("Writes", map[string]interface{}{"AuthorId": "NoSuchAuthor", "PaperId": "CR0"}))
		} else {
			bad = append(bad, Insert("Paper", map[string]interface{}{"PaperId": "LongP", "PaperName": strings.Repeat("x", 1<<20+1)}))
		}
		if _, err := sys.Apply(ctx, bad); err == nil {
			t.Fatalf("round %d: a batch that must be rejected was accepted", i)
		}
	}
	close(stop)
	wg.Wait()

	if q, err := sys.Query(ctx, Query{Text: "lantern"}); err != nil {
		t.Fatal(err)
	} else if len(q.Answers) != 0 {
		t.Fatal("a rolled-back insert is searchable")
	}
	checkQueryParity(t, sys, []string{"lantern", "meridian sonnet", "sunita soumen"}, "after concurrent rollbacks")
}

// TestCloseLifecycle pins the Close contract: idempotent, sticky result,
// and operations beginning after Close fail with ErrClosed.
func TestCloseLifecycle(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	if _, err := sys.Apply(ctx, []Mutation{
		Insert("Author", map[string]interface{}{"AuthorId": "C1", "AuthorName": "cipher"}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := sys.Query(ctx, Query{Text: "cipher"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v, want ErrClosed", err)
	}
	if _, err := sys.Apply(ctx, []Mutation{Delete("Writes", 0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v, want ErrClosed", err)
	}
	if err := sys.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
}

// TestMutationChurnRace interleaves Apply, two querying goroutines,
// foreign database writes, Compact and a final Close under the race
// detector: writers serialize, queries pin their snapshot, an Apply
// behind a foreign write fails with ErrStale until Compact rebuilds, and
// whatever begins after Close fails with ErrClosed instead of tearing.
func TestMutationChurnRace(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // mutator
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		serial := 100000
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			serial++
			id := fmt.Sprintf("Race%d", serial)
			_, err := sys.Apply(ctx, []Mutation{
				Insert("Author", map[string]interface{}{"AuthorId": id, "AuthorName": mutWords[rng.Intn(len(mutWords))]}),
			})
			if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrStale) {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // querier
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := sys.Query(ctx, Query{Text: "sunita soumen"})
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // maintenance: Compact, after a foreign write every other time
		defer wg.Done()
		for i := 0; i < 6; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				// The next Compact rebuilds instead of folding.
				if _, err := sys.Database().Exec("INSERT INTO Author (AuthorId, AuthorName) VALUES (?, ?)", fmt.Sprintf("Foreign%d", i), "foreign"); err != nil {
					t.Errorf("foreign insert: %v", err)
					return
				}
			}
			if err := sys.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("maintenance: %v", err)
				return
			}
		}
	}()

	// Let the loops overlap for a bounded amount of work, then close
	// while they are still running.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for i := 0; i < 40; i++ {
		if _, err := sys.Query(ctx, Query{Text: "transaction recovery"}); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("main query: %v", err)
			break
		}
	}
	if err := sys.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(stop)
	<-done
	checkQueryParityClosed(t, sys)
}

// checkQueryParityClosed asserts the post-close failure mode once more
// from the main goroutine.
func checkQueryParityClosed(t *testing.T, sys *System) {
	t.Helper()
	if _, err := sys.Query(context.Background(), Query{Text: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v, want ErrClosed", err)
	}
}

// TestSelfCitationParallelArcs: a Cites row whose citing and cited paper
// are one row gives two FK arcs between one pair of nodes, each way. The
// search keeps no arc weights and reads every tree edge's back from the
// graph, so each answer through that row must weigh and score exactly as
// on a fresh build over the same rows: through the Apply overlay, and
// again after Compact. The two queries reach the row over the forward
// arc (a one-edge tree) and over the scaled backward arc.
func TestSelfCitationParallelArcs(t *testing.T) {
	sys := newMutableDBLP(t)
	ctx := context.Background()
	res, err := sys.Apply(ctx, []Mutation{Insert("Cites", map[string]interface{}{
		"Citing": datagen.PaperChakrabartiSD98, "Cited": datagen.PaperChakrabartiSD98,
	})})
	if err != nil {
		t.Fatal(err)
	}
	rid := res.RIDs[0]
	// through reports, for each answer whose tree holds the new row, its
	// tree with exact edge weights, and its exact weight and score.
	through := func(s *System, text string) map[string]string {
		t.Helper()
		r, err := s.Query(ctx, Query{Text: text, Options: &SearchOptions{TopK: 300}})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, a := range r.Answers {
			var sig func(n *TreeNode) string
			hit := false
			sig = func(n *TreeNode) string {
				hit = hit || n.Tuple.Table == "Cites" && n.Tuple.RID == rid
				kids := make([]string, len(n.Children))
				for i, c := range n.Children {
					kids[i] = fmt.Sprintf("%v>%s", c.EdgeWeight, sig(c))
				}
				sort.Strings(kids)
				return fmt.Sprintf("%s/%d[%s]", n.Tuple.Table, n.Tuple.RID, strings.Join(kids, ","))
			}
			if s := sig(a.Tree); hit {
				out[s] = fmt.Sprintf("weight %v score %v", a.Weight, a.Score)
			}
		}
		return out
	}
	for _, phase := range []string{"overlay", "compacted"} {
		if phase == "compacted" {
			if err := sys.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := NewSystem(sys.Database(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{"cites surprising", "chakrabartisd98 soumen"} {
			got, want := through(sys, text), through(ref, text)
			if len(want) == 0 {
				t.Fatalf("%s: no answer to %q runs through the self-citation", phase, text)
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s: answers to %q through the self-citation differ from a fresh build:\ngot  %v\nwant %v", phase, text, got, want)
			}
		}
		ref.Close()
	}
}
