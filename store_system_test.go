package banks

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// saveQuickstart persists a quickstart system to a store file.
func saveQuickstart(t *testing.T) (*Database, *System, string) {
	t.Helper()
	db, sys := newQuickstartSystem(t)
	path := filepath.Join(t.TempDir(), "engine.bstore")
	if err := sys.Save(path); err != nil {
		t.Fatal(err)
	}
	return db, sys, path
}

// systemTrace fingerprints a set of queries: scores, roots, tree labels
// and iterator pop counts.
func systemTrace(t *testing.T, sys *System) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []Query{
		{Text: "sunita soumen", Options: &SearchOptions{ExcludedRootTables: []string{"writes"}}},
		{Text: "byron"},
		{Text: "su", Prefix: true},
		{Text: "author:sunita", Qualified: true},
	} {
		res, err := sys.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %q: %v", q.Text, err)
		}
		fmt.Fprintf(&b, "%s pops=%d:", q.Text, res.Stats.Pops)
		for _, a := range res.Answers {
			fmt.Fprintf(&b, " |%.6f %s", a.Score, a.Format())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSaveOpenSystemParity(t *testing.T) {
	db, sys, path := saveQuickstart(t)
	opened, err := OpenSystem(path, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	want := systemTrace(t, sys)
	// Cold (first queries fault segments in), then warm.
	if got := systemTrace(t, opened); got != want {
		t.Fatalf("cold store queries diverge:\ngot  %q\nwant %q", got, want)
	}
	if got := systemTrace(t, opened); got != want {
		t.Fatalf("warm store queries diverge:\ngot  %q\nwant %q", got, want)
	}
	gs1, gs2 := sys.GraphStats(), opened.GraphStats()
	if gs1.Nodes != gs2.Nodes || gs1.Arcs != gs2.Arcs || gs1.Tables != gs2.Tables {
		t.Errorf("graph stats differ: %+v vs %+v", gs1, gs2)
	}
	is1, is2 := sys.IndexStats(), opened.IndexStats()
	if is1 != is2 {
		t.Errorf("index stats differ: %+v vs %+v", is1, is2)
	}
}

func TestOpenSystemRequiresDatabase(t *testing.T) {
	_, _, path := saveQuickstart(t)
	if _, err := OpenSystem(path, nil, nil); err == nil {
		t.Fatal("OpenSystem accepted a nil database")
	}
}

func TestSaveRefusesForeignFiles(t *testing.T) {
	_, sys := newQuickstartSystem(t)
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("# my notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := sys.Save(path)
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("Save over a foreign file: err = %v, want refusal", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "# my notes" {
		t.Fatal("foreign file was modified")
	}
	// Saving over our own store is fine.
	_, sys2, storePath := saveQuickstart(t)
	if err := sys2.Save(storePath); err != nil {
		t.Fatal(err)
	}
}

func TestCompactPersistsToStorePath(t *testing.T) {
	db := NewDatabase()
	if err := db.ExecScript(`
		CREATE TABLE author (id TEXT PRIMARY KEY, name TEXT);
		CREATE TABLE paper (id TEXT PRIMARY KEY, title TEXT);
		CREATE TABLE writes (aid TEXT REFERENCES author, pid TEXT REFERENCES paper);
		INSERT INTO author VALUES ('a1', 'Soumen Chakrabarti'),
			('a2', 'Sunita Sarawagi'), ('a3', 'Byron Dom');
		INSERT INTO paper VALUES ('p1', 'Mining Surprising Patterns');
		INSERT INTO writes VALUES ('a1', 'p1'), ('a2', 'p1'), ('a3', 'p1');
	`); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.bstore")
	sys, err := NewSystem(db, &SystemOptions{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	// The initial build persisted a store usable for instant reopen.
	opened, err := OpenSystem(path, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := systemTrace(t, opened), systemTrace(t, sys); got != want {
		t.Fatalf("persisted store diverges from serving engine")
	}
	opened.Close()

	// New data + Compact: the store on disk follows the engine.
	db.MustExec(`INSERT INTO author VALUES ('a9', 'Zanzibar Quux')`)
	db.MustExec(`INSERT INTO writes VALUES ('a9', 'p1')`)
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSystem(path, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	res, err := reopened.Query(context.Background(), Query{Text: "zanzibar"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("compacted store does not see the new tuple")
	}
}

func TestStoreWarmupPrimesMatchCache(t *testing.T) {
	db, sys := newQuickstartSystem(t)
	// Run queries so the cache has hot keys, then save them with the store.
	if _, err := sys.Query(context.Background(), Query{Text: "sunita soumen"}); err != nil {
		t.Fatal(err)
	}
	if cs := sys.CacheStats(); cs.Entries == 0 {
		t.Fatal("no hot cache entries to record")
	}
	path := filepath.Join(t.TempDir(), "warm.bstore")
	if err := sys.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSystem(path, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	// The warmup runs on a background goroutine; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for opened.CacheStats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("opened store never warmed its match cache")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLegacySnapshotRejected(t *testing.T) {
	db, _ := newQuickstartSystem(t)
	// A hand-written header in the retired monolithic snapshot format
	// ("BANKSNAP" + version) must be refused, whatever follows it: nothing
	// decodes that format any more.
	var legacy bytes.Buffer
	legacy.WriteString("BANKSNAP")
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], 1)
	legacy.Write(ver[:])
	legacy.Write(make([]byte, 64))

	if _, err := openSystemFile(t, db, legacy.Bytes()); err == nil {
		t.Fatal("legacy snapshot accepted")
	} else if !strings.Contains(err.Error(), "not a BANKS store") {
		t.Fatalf("err = %v, want the not-a-store error", err)
	}
}

func TestCorruptStoreFailsQueriesLoudly(t *testing.T) {
	db, _, path := saveQuickstart(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the arcs segment region (past header + meta).
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSystem(path, db, nil)
	if err != nil {
		return // caught at open; equally loud
	}
	defer opened.Close()
	_, qerr := opened.Query(context.Background(), Query{Text: "sunita soumen"})
	_, qerr2 := opened.Query(context.Background(), Query{Text: "byron"})
	if qerr == nil && qerr2 == nil {
		t.Fatal("queries over a corrupt store reported no error")
	}
}
