package banks

// The built engine's bytes are a golden. Every store a build path writes
// is hashed whole and per segment (SHA-256), and the hashes are compared
// with testdata/engine.golden, so a change that moves a single byte of
// the graph or the index fails here and names the segment that moved. A
// change that means to move bytes regenerates the file and says why:
//
//	go test -run TestEngineGolden -update .

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/sqldb"
)

var updateEngineGolden = flag.Bool("update", false, "rewrite testdata/engine.golden")

const engineGoldenPath = "testdata/engine.golden"

// segmentNames names the store's segment kinds (internal/store/format.go)
// in golden lines.
var segmentNames = map[uint32]string{
	1: "graph-meta", 2: "node-meta", 3: "graph-arcs", 4: "term-dict",
	5: "postings", 6: "warm-terms", 7: "wal-seq", 8: "term-stats",
}

// storeHashes returns one golden line per segment of the store file at
// path, in directory order, then one for the whole file. The footer
// (dir offset u64, dir length u64, dir crc u32, magic) locates the
// directory: a u32 count of {kind u32, offset u64, length u64, crc u32}.
func storeHashes(t *testing.T, name, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := data[len(data)-28:]
	dirOff, dirLen := binary.BigEndian.Uint64(foot), binary.BigEndian.Uint64(foot[8:])
	dir := data[dirOff : dirOff+dirLen]
	var lines []string
	for i := uint32(0); i < binary.BigEndian.Uint32(dir); i++ {
		e := dir[4+24*i:]
		kind, off, n := binary.BigEndian.Uint32(e), binary.BigEndian.Uint64(e[4:]), binary.BigEndian.Uint64(e[12:])
		seg, ok := segmentNames[kind]
		if !ok {
			seg = fmt.Sprintf("kind-%d", kind)
		}
		lines = append(lines, fmt.Sprintf("%s %s %x", name, seg, sha256.Sum256(data[off:off+n])))
	}
	return append(lines, fmt.Sprintf("%s file %x", name, sha256.Sum256(data)))
}

// savedHashes builds a System over db with opts, saves it, and returns the
// store's golden lines, then those of each partition of a two-way split.
func savedHashes(t *testing.T, name string, db *sqldb.Database, opts *SystemOptions, split bool) []string {
	t.Helper()
	sys, err := NewSystem(WrapDatabase(db), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer sys.Close()
	base := filepath.Join(t.TempDir(), "engine.banks")
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	lines := storeHashes(t, name, base)
	if !split {
		return lines
	}
	paths := ClusterPartitionPaths(base, 2)
	if err := cluster.SplitStore(base, paths); err != nil {
		t.Fatal(err)
	}
	for p, path := range paths {
		lines = append(lines, storeHashes(t, fmt.Sprintf("%s/split2.p%d", name, p), path)...)
	}
	return lines
}

// compactedHashes runs a fixed Apply script on small DBLP with a WAL and
// a store, compacts, checks the compacted store against a fresh build of
// the same final database, and returns the golden lines of the store
// Compact wrote.
func compactedHashes(t *testing.T) []string {
	t.Helper()
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storePath := filepath.Join(dir, "engine.banks")
	sys, err := NewSystem(WrapDatabase(db), &SystemOptions{WALPath: filepath.Join(dir, "engine.wal"), StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	for _, batch := range [][]Mutation{
		{
			Insert("Author", map[string]interface{}{"AuthorId": "GoldA1", "AuthorName": "Golden Quasar"}),
			Insert("Paper", map[string]interface{}{"PaperId": "GoldP1", "PaperName": "Engine Bytes Pinned"}),
			Insert("Writes", map[string]interface{}{"AuthorId": "GoldA1", "PaperId": "GoldP1"}),
		},
		{Insert("Writes", map[string]interface{}{"AuthorId": datagen.AuthorSoumen, "PaperId": "GoldP1"})},
		{Update("Paper", 0, map[string]interface{}{"PaperName": "Renamed Golden Paper"})},
		{Delete("Writes", 0), Delete("Writes", 1)},
	} {
		if _, err := sys.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	got := storeHashes(t, "dblp-small/compact", storePath)

	// Compacting is rebuilding: a fresh build of the final database saves
	// the same segments, and only the WAL sequence (so the whole-file
	// hash) tells the two stores apart.
	fresh := savedHashes(t, "dblp-small/compact", db, nil, false)
	engineOnly := func(lines []string) []string {
		return slices.DeleteFunc(slices.Clone(lines), func(l string) bool {
			seg := strings.Fields(l)[1]
			return seg == "wal-seq" || seg == "file"
		})
	}
	if c, f := engineOnly(got), engineOnly(fresh); !slices.Equal(c, f) {
		t.Errorf("compacted store differs from a fresh build:\ncompacted %q\n    fresh %q", c, f)
	}
	return got
}

func TestEngineGolden(t *testing.T) {
	datasets := []struct {
		name  string
		build func() (*sqldb.Database, error)
	}{
		{"dblp-small", func() (*sqldb.Database, error) { return datagen.BuildDBLP(datagen.SmallDBLP()) }},
		{"thesis-small", func() (*sqldb.Database, error) { return datagen.BuildThesis(datagen.SmallThesis()) }},
		{"tpcd-small", func() (*sqldb.Database, error) { return datagen.BuildTPCD(datagen.SmallTPCD()) }},
	}
	modes := []struct {
		name string
		opts SystemOptions
	}{
		{"default", SystemOptions{}},
		{"unscaled", SystemOptions{DisableBackEdgeScaling: true}},
		{"pagerank", SystemOptions{PrestigeDamping: 0.85}},
	}
	var got []string
	for _, ds := range datasets {
		db, err := ds.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			opts := m.opts
			got = append(got, savedHashes(t, ds.name+"/"+m.name, db, &opts, true)...)
		}
	}
	paper, err := datagen.BuildDBLP(datagen.PaperScaleDBLP())
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, savedHashes(t, "dblp-paper/default", paper, nil, false)...)
	got = append(got, compactedHashes(t)...)

	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(engineGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (run with -update): %v", engineGoldenPath, err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Errorf("%d golden lines, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("engine bytes moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
