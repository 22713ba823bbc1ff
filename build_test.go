package banks

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/graph"
)

// TestNonASCIITableName: a table whose name has a non-ASCII capital is
// found by every path that resolves a table name: the build, a root
// exclusion, a saved store reopened, and a two-way cluster. Table names
// fold with strings.ToLower wherever they are keyed, so "Ärzte" and
// "ärzte" name one table. The two-term answer lies in chunk 0 of every
// table, so the split keeps it whole in partition 0.
func TestNonASCIITableName(t *testing.T) {
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE "Ärzte" (id INT PRIMARY KEY, name TEXT);
		CREATE TABLE patient (id INT PRIMARY KEY, name TEXT);
		CREATE TABLE visit (arzt INT REFERENCES "Ärzte", pat INT REFERENCES patient);
		INSERT INTO "Ärzte" VALUES (1, 'Paracelsus'), (2, 'Hildegard');
		INSERT INTO patient VALUES (1, 'Anna'), (2, 'Bruno');
		INSERT INTO visit VALUES (1, 1), (2, 2), (1, 2);
	`); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	answers := searchAnswers(t, sys, "paracelsus", nil)
	if len(answers) != 1 || answers[0].Root.Table != "Ärzte" {
		t.Fatalf("paracelsus:\n%s", renderAnswers(answers))
	}
	for _, name := range []string{"ärzte", "ÄRZTE"} {
		if answers := searchAnswers(t, sys, "paracelsus", &SearchOptions{ExcludedRootTables: []string{name}}); len(answers) != 0 {
			t.Errorf("excluding %q:\n%s", name, renderAnswers(answers))
		}
	}
	want := renderAnswers(searchAnswers(t, sys, "paracelsus anna", nil))
	if want == "" {
		t.Fatal("paracelsus anna: no answers")
	}

	base := filepath.Join(t.TempDir(), "aerzte.banks")
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSystem(base, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := renderAnswers(searchAnswers(t, opened, "paracelsus anna", nil)); got != want {
		t.Errorf("opened store:\n%s\nwant\n%s", got, want)
	}

	paths := ClusterPartitionPaths(base, 2)
	if err := cluster.SplitStore(base, paths); err != nil {
		t.Fatal(err)
	}
	cl, err := OpenCluster(db, paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(context.Background(), Query{Text: "paracelsus anna"})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAnswers(res.Answers); got != want {
		t.Errorf("two-way cluster:\n%s\nwant\n%s", got, want)
	}
}

// TestBareNonASCIIIdentifiers: bare (unquoted) identifiers may hold any
// Unicode letter, and such a schema is served like an ASCII one: SQL
// reads it back, a data query finds the answer joining two of its
// tables, and the relation's name is a metadata keyword.
func TestBareNonASCIIIdentifiers(t *testing.T) {
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE Ärzte (id INT PRIMARY KEY, name TEXT);
		CREATE TABLE patiënt (id INT PRIMARY KEY, naam TEXT);
		CREATE TABLE Besuch (arzt INT REFERENCES Ärzte, patiënt INT REFERENCES patiënt);
		INSERT INTO Ärzte VALUES (1, 'Paracelsus'), (2, 'Hildegard');
		INSERT INTO patiënt VALUES (1, 'Anna'), (2, 'Bruno');
		INSERT INTO Besuch VALUES (1, 1), (2, 2), (1, 2);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT name FROM Ärzte WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "Hildegard" {
		t.Fatalf("SELECT from Ärzte: %v", res.Rows)
	}
	sys, err := NewSystem(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	answers := searchAnswers(t, sys, "paracelsus anna", nil)
	if len(answers) == 0 || answers[0].Root.Table != "Besuch" {
		t.Fatalf("paracelsus anna:\n%s", renderAnswers(answers))
	}
	got := answers[0].Format()
	for _, want := range []string{"Ärzte", "patiënt"} {
		if !strings.Contains(got, want) {
			t.Errorf("paracelsus anna: top answer lacks %s:\n%s", want, got)
		}
	}
	if answers := searchAnswers(t, sys, "ärzte", nil); len(answers) != 2 {
		t.Errorf("metadata keyword ärzte: want both doctors:\n%s", renderAnswers(answers))
	}
}

// TestCompactConcurrentExecConsistent: every engine a rebuilding Compact
// publishes has a graph and an index built from one snapshot of the
// database, while another goroutine updates and deletes rows. Each row of c carries its
// parent's id as the token "p<id>" and the same parent as an FK, and one
// UPDATE changes both, so a graph and an index that saw different
// snapshots disagree on some row: the graph's arc says one parent, the
// index's posting another (or none, for a row deleted in between).
func TestCompactConcurrentExecConsistent(t *testing.T) {
	const parents, rows = 4, 400
	db := NewDatabase()
	db.MustExec("CREATE TABLE p (id INT PRIMARY KEY)")
	db.MustExec("CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p, tag TEXT)")
	for i := 0; i < parents; i++ {
		db.MustExec("INSERT INTO p VALUES (?)", i)
	}
	for i := 0; i < rows; i++ {
		db.MustExec("INSERT INTO c VALUES (?, ?, ?)", i, i%parents, fmt.Sprintf("p%d", i%parents))
	}
	sys, err := NewSystem(db, &SystemOptions{MatchCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			id := rng.Intn(rows)
			var err error
			if rng.Intn(8) == 0 {
				_, err = db.Exec("DELETE FROM c WHERE id = ?", id)
			} else {
				q := rng.Intn(parents)
				_, err = db.Exec("UPDATE c SET pid = ?, tag = ? WHERE id = ?", q, fmt.Sprintf("p%d", q), id)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for round := 0; round < 30; round++ {
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
		eng := sys.engine()
		g, ix, ok := eng.concrete()
		if !ok {
			t.Fatal("Compact published an overlay engine")
		}
		if ix.NumNodes() != g.NumNodes() {
			t.Fatalf("round %d: index built for %d nodes, graph has %d", round, ix.NumNodes(), g.NumNodes())
		}
		pt, ct := g.TableID("p"), g.TableID("c")
		tagged := make(map[graph.NodeID]int) // c node -> the parent its postings name
		for q := 0; q < parents; q++ {
			for _, n := range ix.Lookup(fmt.Sprintf("p%d", q)).Nodes {
				if _, dup := tagged[n]; dup {
					t.Fatalf("round %d: node %d is posted under two parents", round, n)
				}
				tagged[n] = q
			}
		}
		lo, hi := g.NodesOfTable(ct)
		if len(tagged) != int(hi-lo) {
			t.Fatalf("round %d: %d c nodes in the index, %d in the graph", round, len(tagged), hi-lo)
		}
		for n := lo; n < hi; n++ {
			parent := -1
			for _, e := range g.Out(n) {
				if g.TableOf(e.To) == pt {
					parent = int(g.RIDOf(e.To))
				}
			}
			if tag, ok := tagged[n]; !ok || tag != parent {
				t.Fatalf("round %d: c row %d links parent %d in the graph, %d in the index", round, g.RIDOf(n), parent, tag)
			}
		}
	}
}
