package banks

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openSystemFile writes data to a fresh file and opens it with OpenSystem
// over db; a System that opens is closed when the test ends.
func openSystemFile(t *testing.T, db *Database, data []byte) (*System, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.bstore")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := OpenSystem(path, db, nil)
	if err == nil {
		t.Cleanup(func() { sys.Close() })
	}
	return sys, err
}

func TestSnapshotRoundTrip(t *testing.T) {
	db, sys, path := saveQuickstart(t)
	// Reconstruct without rebuilding.
	sys2, err := OpenSystem(path, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	a1 := searchAnswers(t, sys, "sunita soumen", &SearchOptions{ExcludedRootTables: []string{"writes"}})
	a2 := searchAnswers(t, sys2, "sunita soumen", &SearchOptions{ExcludedRootTables: []string{"writes"}})
	if len(a1) != len(a2) {
		t.Fatalf("answer counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Score != a2[i].Score || a1[i].Root.Table != a2[i].Root.Table || a1[i].Root.RID != a2[i].Root.RID {
			t.Errorf("answer %d differs: %+v vs %+v", i, a1[i].Root, a2[i].Root)
		}
	}
	gs1, gs2 := sys.GraphStats(), sys2.GraphStats()
	if gs1.Nodes != gs2.Nodes || gs1.Arcs != gs2.Arcs {
		t.Errorf("graph stats differ: %+v vs %+v", gs1, gs2)
	}
}

// The TestLoadSystem* cases load a System from a file that is not a
// valid store; OpenSystem must refuse each one.

func TestLoadSystemBadInput(t *testing.T) {
	if _, err := openSystemFile(t, NewDatabase(), []byte("junk")); err == nil {
		t.Error("junk snapshot should fail")
	}
}

func TestLoadSystemRejectsBadMagic(t *testing.T) {
	// A non-store file long enough to reach (and fail) the magic check.
	_, err := openSystemFile(t, NewDatabase(), bytes.Repeat([]byte{0xFF}, 64))
	if err == nil {
		t.Fatal("bad magic accepted")
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("err = %v, want a bad-magic error", err)
	}
}

func TestLoadSystemRejectsBadVersion(t *testing.T) {
	db, _, path := saveQuickstart(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8], raw[9], raw[10], raw[11] = 0xDE, 0xAD, 0xBE, 0xEF
	_, err = openSystemFile(t, db, raw)
	if err == nil {
		t.Fatal("bad version accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want a version error", err)
	}
}

func TestLoadSystemRejectsLegacyMagic(t *testing.T) {
	// The retired monolithic snapshot format ("BANKSNAP") is not a store:
	// its magic is refused like any other.
	_, err := openSystemFile(t, NewDatabase(), []byte("BANKSNAP\x00\x00\x00\x01"+strings.Repeat("\x00", 64)))
	if err == nil {
		t.Fatal("legacy snapshot accepted")
	}
	if !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("err = %v, want a bad-magic error", err)
	}
}

func TestDumpSQLPlusSnapshotFullRestore(t *testing.T) {
	// The documented deployment flow: dump SQL + Save, restore both.
	db, _, path := saveQuickstart(t)
	var sqlDump bytes.Buffer
	if err := db.DumpSQL(&sqlDump); err != nil {
		t.Fatal(err)
	}

	db2 := NewDatabase()
	if err := db2.ExecScript(sqlDump.String()); err != nil {
		t.Fatal(err)
	}
	sys2, err := OpenSystem(path, db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	answers := searchAnswers(t, sys2, "byron", nil)
	if len(answers) == 0 {
		t.Fatal("restored system found nothing")
	}
	if answers[0].Root.Values[1] != "Byron Dom" {
		t.Errorf("restored tuple = %+v", answers[0].Root)
	}
}
