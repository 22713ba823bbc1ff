package store

// Fuzz coverage for the store's attack surface, in the style of the
// index.ReadFrom hardening: arbitrary bytes handed to OpenReaderAt must be
// cleanly rejected or yield an engine whose full materialization neither
// panics nor allocates unboundedly. Seeds cover the valid format plus
// truncations and targeted corruptions of every region (header, segments,
// directory, footer).

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// fuzzSeedStore builds a tiny real engine and serializes it — the honest
// starting point the fuzzer mutates from.
var fuzzSeed = sync.OnceValues(func() ([]byte, error) {
	db := sqldb.NewDatabase()
	if _, err := db.CreateTable(&sqldb.TableSchema{
		Name: "author",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeText, NotNull: true},
			{Name: "name", Type: sqldb.TypeText},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable(&sqldb.TableSchema{
		Name: "paper",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TypeText, NotNull: true},
			{Name: "title", Type: sqldb.TypeText},
			{Name: "author", Type: sqldb.TypeText},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "author", RefTable: "author"}},
	}); err != nil {
		return nil, err
	}
	db.Insert("author", []sqldb.Value{sqldb.Text("a1"), sqldb.Text("Sunita Sarawagi")})
	db.Insert("author", []sqldb.Value{sqldb.Text("a2"), sqldb.Text("Soumen Chakrabarti")})
	db.Insert("paper", []sqldb.Value{sqldb.Text("p1"), sqldb.Text("Mining Surprising Patterns"), sqldb.Text("a1")})
	db.Insert("paper", []sqldb.Value{sqldb.Text("p2"), sqldb.Text("Keyword Searching"), sqldb.Text("a2")})
	g, err := graph.Build(db, nil)
	if err != nil {
		return nil, err
	}
	ix, err := index.Build(db, g)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = Write(&buf, Engine{Graph: g, Index: ix, WarmKeys: []string{"=sunita", "~min"}})
	return buf.Bytes(), err
})

func FuzzStoreOpen(f *testing.F) {
	seed, err := fuzzSeed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("BANKSST1"))
	f.Add([]byte("BANKSNAPnot a store"))
	// Truncations at region boundaries.
	for _, cut := range []int{headerSize, headerSize + 10, len(seed) - footerSize, len(seed) - 1, len(seed) / 2} {
		if cut >= 0 && cut <= len(seed) {
			f.Add(seed[:cut])
		}
	}
	// One corruption per region: header, early segment bytes, mid payload,
	// directory and footer.
	for _, pos := range []int{3, 9, headerSize + 4, len(seed) / 3, 2 * len(seed) / 3, len(seed) - entrySize, len(seed) - 2} {
		mut := append([]byte(nil), seed...)
		if pos >= 0 && pos < len(mut) {
			mut[pos] ^= 0x5A
			f.Add(mut)
		}
	}

	// A zero arc weight behind valid checksums: only the graph's own arc
	// validation stands between it and the shortest-path search.
	f.Add(withArcWeight(f, seed, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Both byte-source implementations must reject/serve identical
		// inputs identically: the copy path (plain io.ReaderAt) and the
		// zero-copy view path (Mem, the in-memory stand-in for the mmap
		// fast path — same viewer interface, same aliasing decode).
		copyErr := fuzzProbe(OpenReaderAt(bytes.NewReader(data), int64(len(data)), Options{BudgetBytes: 1 << 16}))
		viewErr := fuzzProbe(OpenReaderAt(Mem(data), int64(len(data)), Options{BudgetBytes: 1 << 16}))
		if (copyErr == nil) != (viewErr == nil) {
			t.Fatalf("byte sources disagree on acceptance: copy=%v view=%v", copyErr, viewErr)
		}
	})
}

// fuzzProbe forces every lazy path of an opened store: full graph + index
// materialization, lookups (exact, prefix, metadata), warm keys and the
// eager verification pass. None of it may panic; errors are fine.
func fuzzProbe(st *Store, err error) error {
	if err != nil {
		return err // rejected cleanly
	}
	defer st.Close()
	g, ix := st.Graph(), st.Index()
	_, _ = g.WriteTo(io.Discard)
	_, _ = ix.WriteTo(io.Discard)
	for _, term := range []string{"sunita", "mining", "paper", "zzz"} {
		ix.Lookup(term)
		ix.LookupPrefix(term[:1])
	}
	if g.NumNodes() > 0 {
		g.Out(0)
		g.In(0)
		g.Prestige(0)
		g.RIDOf(0)
	}
	_, _ = st.WarmKeys()
	_ = st.Verify()
	_ = st.Err()
	_ = st.Stats()
	return nil
}

// withArcWeight returns a copy of a valid store whose first forward arc
// weighs w, with the arcs segment's checksum, the directory and the
// footer's directory checksum redone so every framing check still passes.
func withArcWeight(tb testing.TB, data []byte, w float64) []byte {
	tb.Helper()
	out := append([]byte(nil), data...)
	foot := out[len(out)-footerSize:]
	dirOff := binary.BigEndian.Uint64(foot)
	dirLen := binary.BigEndian.Uint64(foot[8:])
	entries, err := decodeDirectory(out[dirOff : dirOff+dirLen])
	if err != nil {
		tb.Fatal(err)
	}
	for i, e := range entries {
		if e.kind != kindGraphArcs {
			continue
		}
		seg := out[e.off : e.off+e.length]
		// Header (16 bytes), the 8-aligned forward offsets, then 16-byte
		// arc records whose second word is the weight.
		nn := int(binary.LittleEndian.Uint32(seg))
		binary.LittleEndian.PutUint64(seg[16+(4*(nn+1)+7)&^7+8:], math.Float64bits(w))
		entries[i].crc = checksum(seg)
		copy(out[dirOff:], encodeDirectory(entries))
		binary.BigEndian.PutUint32(foot[16:], checksum(out[dirOff:dirOff+dirLen]))
		return out
	}
	tb.Fatal("store has no arcs segment")
	return nil
}

// TestOpenRejectsNonPositiveArcWeight: a store whose framing is intact but
// whose arcs segment carries a zero, negative, NaN or infinite weight
// opens (arcs load lazily), serves no arcs, and reports the bad arc.
func TestOpenRejectsNonPositiveArcWeight(t *testing.T) {
	seed, err := fuzzSeed()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		st, err := OpenReaderAt(Mem(withArcWeight(t, seed, w)), int64(len(seed)), Options{})
		if err != nil {
			t.Fatalf("weight %v: open failed before any arc was read: %v", w, err)
		}
		if n := len(st.Graph().Out(0)); n != 0 {
			t.Errorf("weight %v: node 0 has %d arcs after a rejected segment", w, n)
		}
		if err := st.Err(); err == nil || !strings.Contains(err.Error(), "forward arc 0 (node 0, neighbour") {
			t.Errorf("weight %v: Err = %v, want the bad arc named", w, err)
		}
		st.Close()
	}
}

// FuzzStoreRoundTrip mutates warm-key lists and re-serializes: for any
// accepted store, Write(Open(x)) must reproduce x byte-for-byte (the
// determinism Resave relies on).
func FuzzStoreRoundTrip(f *testing.F) {
	seed, err := fuzzSeed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)), Options{})
		if err != nil {
			return
		}
		warm, err := st.WarmKeys()
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, Engine{Graph: st.Graph(), Index: st.Index(), WarmKeys: warm}); err != nil {
			return // a corrupt lazy segment surfaced during re-save
		}
		if st.Err() != nil {
			return // some segment was corrupt; no determinism claim
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("round trip changed %d bytes to %d and altered content", len(data), out.Len())
		}
	})
}
