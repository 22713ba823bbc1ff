package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/sqldb"
)

// The shared DBLP fixture: one built engine reused across tests (building
// it is the expensive part of this suite).
var fixture struct {
	once sync.Once
	db   *sqldb.Database
	g    *graph.Graph
	ix   *index.Index
	err  error
}

func dblpEngine(t *testing.T) (*sqldb.Database, *graph.Graph, *index.Index) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := datagen.SmallDBLP()
		fixture.db, fixture.err = datagen.BuildDBLP(cfg)
		if fixture.err != nil {
			return
		}
		if fixture.g, fixture.err = graph.Build(fixture.db, nil); fixture.err != nil {
			return
		}
		fixture.ix, fixture.err = index.Build(fixture.db, fixture.g)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.db, fixture.g, fixture.ix
}

// saveFixture writes the fixture engine to a fresh store file.
func saveFixture(t *testing.T, warm []string) string {
	t.Helper()
	_, g, ix := dblpEngine(t)
	path := filepath.Join(t.TempDir(), "dblp.bstore")
	if err := WriteFile(path, Engine{Graph: g, Index: ix, WarmKeys: warm}); err != nil {
		t.Fatal(err)
	}
	return path
}

var parityQueries = [][]string{
	{"mohan"},
	{"transaction"},
	{"soumen", "sunita"},
	{"seltzer", "sunita"},
	{"mining", "surprising", "patterns"},
}

// queryTrace runs the parity queries and captures everything observable:
// roots, scores, edges and iterator pop counts.
func queryTrace(t *testing.T, g *graph.Graph, ix *index.Index) string {
	t.Helper()
	s := core.NewSearcher(g, ix)
	var b strings.Builder
	for _, terms := range parityQueries {
		answers, stats, err := s.Query(context.Background(), core.Request{Terms: terms}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(strings.Join(terms, " "))
		for _, a := range answers {
			b.WriteString(" |")
			b.WriteString(a.Describe(g))
		}
		b.WriteString(" pops=")
		b.WriteString(strings.Repeat("I", stats.Pops%97)) // cheap pop fingerprint
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStoreRoundTripQueryParity(t *testing.T) {
	_, g, ix := dblpEngine(t)
	path := saveFixture(t, nil)
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := queryTrace(t, g, ix)
	// Cold: first queries fault the segments in. Warm: everything resident.
	if got := queryTrace(t, st.Graph(), st.Index()); got != want {
		t.Fatalf("cold store queries diverge:\n got %q\nwant %q", got, want)
	}
	if got := queryTrace(t, st.Graph(), st.Index()); got != want {
		t.Fatalf("warm store queries diverge:\n got %q\nwant %q", got, want)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	// The opened engine writes byte-identically to the built one — graph
	// and index are equivalent in full, not just on these queries.
	var built, opened bytes.Buffer
	if err := Write(&built, Engine{Graph: g, Index: ix}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&opened, Engine{Graph: st.Graph(), Index: st.Index()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), opened.Bytes()) {
		t.Error("store engine writes differently from the built engine")
	}
}

func TestOpenIsLazy(t *testing.T) {
	path := saveFixture(t, nil)
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s != (Stats{}) {
		t.Fatalf("open touched segments before any query: %+v", s)
	}
	_, g, _ := dblpEngine(t)
	if st.Graph().NumNodes() != g.NumNodes() || st.Graph().NumArcs() != g.NumArcs() {
		t.Fatal("meta facts wrong before segment loads")
	}
	if s := st.Stats(); s != (Stats{}) {
		t.Fatalf("meta queries touched segments: %+v", s)
	}
	st.Index().Lookup("transaction")
	if s := st.Stats(); s.MappedBytes == 0 || s.FaultedBytes <= s.MappedBytes {
		t.Fatalf("a lookup should have loaded the term dictionary and one block: %+v", s)
	}
}

func TestResaveOpenedStoreIsByteIdentical(t *testing.T) {
	path := saveFixture(t, []string{"=transaction", "~sur"})
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warm, err := st.WarmKeys()
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := Write(&resaved, Engine{Graph: st.Graph(), Index: st.Index(), WarmKeys: warm}); err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original, resaved.Bytes()) {
		t.Fatal("re-saving an opened store changed its bytes")
	}
}

func TestWarmKeysRoundTrip(t *testing.T) {
	keys := []string{"=transaction", "=mohan", "~sur"}
	path := saveFixture(t, keys)
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.WarmKeys()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Fatalf("WarmKeys = %v, want %v", got, keys)
	}

	// And a store saved without warm keys has none.
	st2, err := Open(saveFixture(t, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, err := st2.WarmKeys(); err != nil || got != nil {
		t.Fatalf("WarmKeys = %v, %v; want nil, nil", got, err)
	}
}

func TestOverwriteGuard(t *testing.T) {
	_, g, ix := dblpEngine(t)
	eng := Engine{Graph: g, Index: ix}
	dir := t.TempDir()

	// A foreign file must not be clobbered.
	foreign := filepath.Join(dir, "precious.db")
	if err := os.WriteFile(foreign, []byte("this is someone's data"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(foreign, eng)
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("WriteFile over a foreign file: err = %v, want a refusal", err)
	}
	if data, _ := os.ReadFile(foreign); string(data) != "this is someone's data" {
		t.Fatal("foreign file was modified")
	}

	// So must a file in the retired monolithic snapshot format: nothing
	// reads it any more, so it is not ours to replace.
	legacy := filepath.Join(dir, "old.snap")
	if err := os.WriteFile(legacy, []byte("BANKSNAP\x00\x00\x00\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(legacy, eng); err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("WriteFile over a BANKSNAP file: err = %v, want a refusal", err)
	}

	// Overwriting a previous store, an empty file or a missing path is
	// allowed.
	ours := filepath.Join(dir, "engine.bstore")
	for _, setup := range []func() error{
		func() error { return nil }, // missing
		func() error { return os.WriteFile(ours, nil, 0o644) },
		func() error { return WriteFile(ours, eng) },
	} {
		if err := setup(); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(ours, eng); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRenameSync: the rename lands and the directory sync that follows it
// succeeds; a missing source fails. Whether the rename survives a crash
// before a WAL truncate cannot be observed in-process.
func TestRenameSync(t *testing.T) {
	dir := t.TempDir()
	from, to := filepath.Join(dir, "new"), filepath.Join(dir, "installed")
	if err := os.WriteFile(from, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RenameSync(from, to); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(to); err != nil || string(data) != "payload" {
		t.Fatalf("installed file = %q, %v", data, err)
	}
	if _, err := os.Stat(from); !os.IsNotExist(err) {
		t.Fatalf("source still present after rename: %v", err)
	}
	if err := RenameSync(from, to); err == nil {
		t.Fatal("renaming a missing file succeeded")
	}
}

func TestCorruptStoresRejected(t *testing.T) {
	path := saveFixture(t, []string{"=transaction"})
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// openAndTouch opens corrupted bytes and, if Open succeeds, forces
	// every lazy load — a re-save encodes every arc, node and posting
	// block — so either stage must surface an error, never a panic.
	openAndTouch := func(data []byte) error {
		st, err := openBytes(data, nil)
		if err != nil {
			return err
		}
		if err := Write(io.Discard, Engine{Graph: st.Graph(), Index: st.Index()}); err != nil {
			return err
		}
		st.Index().Lookup("transaction")
		st.Index().LookupPrefix("tr")
		if _, err := st.WarmKeys(); err != nil {
			return err
		}
		return st.Err()
	}

	if err := openAndTouch(pristine); err != nil {
		t.Fatalf("pristine store failed: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad header magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[11] = 0xEE; return b }},
		{"truncated footer", func(b []byte) []byte { return b[:len(b)-5] }},
		{"truncated mid-file", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad directory crc", func(b []byte) []byte { b[len(b)-10] ^= 1; return b }},
	}
	for _, c := range cases {
		data := c.mutate(append([]byte(nil), pristine...))
		if _, err := openBytes(data, nil); err == nil {
			t.Errorf("%s: Open accepted corrupt store", c.name)
		}
	}

	// Flipping any single payload byte must be caught by a checksum at
	// open, on first touch, or by Verify. Sample positions across the file.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		data := append([]byte(nil), pristine...)
		pos := headerSize + rng.Intn(len(data)-headerSize-footerSize)
		data[pos] ^= 0x40
		st, err := openBytes(data, nil)
		if err != nil {
			continue // caught at open
		}
		if err := st.Verify(); err == nil {
			t.Errorf("flipped byte at %d survived Verify", pos)
		}
		if err := openAndTouch(data); err == nil {
			t.Errorf("flipped byte at %d survived a full touch", pos)
		}
	}
}

func TestVerifyPassesOnPristineStore(t *testing.T) {
	path := saveFixture(t, []string{"=mohan"})
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEvalSuiteParityTPCD is the second-dataset leg of the golden parity
// requirement: the full eval-suite answer lists of a store-opened TPC-D
// engine match the freshly built engine's exactly, cold and warm.
func TestEvalSuiteParityTPCD(t *testing.T) {
	db, err := datagen.BuildTPCD(datagen.SmallTPCD())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tpcd.bstore")
	if err := WriteFile(path, Engine{Graph: g, Index: ix}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	suiteTrace := func(g *graph.Graph, ix *index.Index) string {
		s := core.NewSearcher(g, ix)
		var b strings.Builder
		for _, q := range eval.TPCDSuite() {
			answers, stats, err := s.Query(context.Background(), core.Request{Terms: q.Terms}, eval.DefaultDBLPOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s pops=%d", q.Name, stats.Pops)
			for _, a := range answers {
				fmt.Fprintf(&b, " |%.8f %s", a.Score, a.Describe(g))
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := suiteTrace(g, ix)
	if got := suiteTrace(st.Graph(), st.Index()); got != want {
		t.Fatal("cold TPC-D store eval suite diverges from the built engine")
	}
	if got := suiteTrace(st.Graph(), st.Index()); got != want {
		t.Fatal("warm TPC-D store eval suite diverges from the built engine")
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentColdQueries hammers a freshly opened store from many
// goroutines at once: the first touches of the arcs, node-metadata and
// dictionary segments and of the posting blocks race here, so the lazy
// single-load guards and the block-verified bits must hold under -race
// with answers identical to the built engine.
func TestConcurrentColdQueries(t *testing.T) {
	_, g, ix := dblpEngine(t)
	st, err := Open(saveFixture(t, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := make([]string, len(parityQueries))
	ref := core.NewSearcher(g, ix)
	for i, terms := range parityQueries {
		answers, _, err := ref.Query(context.Background(), core.Request{Terms: terms}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, a := range answers {
			fmt.Fprintf(&b, "|%.8f %s", a.Score, a.Describe(g))
		}
		want[i] = b.String()
	}

	s := core.NewSearcher(st.Graph(), st.Index())
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, terms := range parityQueries {
				answers, _, err := s.Query(context.Background(), core.Request{Terms: terms}, nil, nil)
				if err != nil {
					errs <- err
					return
				}
				var b strings.Builder
				for _, a := range answers {
					fmt.Fprintf(&b, "|%.8f %s", a.Score, a.Describe(st.Graph()))
				}
				if b.String() != want[i] {
					errs <- fmt.Errorf("worker %d query %v diverged", w, terms)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFileSourceParity: Open's two ways to get the store's bytes —
// the mapping, and the os.ReadFile fallback used where the platform has no
// mmap or mapping fails — feed the same openBytes, so one store opened
// both ways must answer the parity queries identically and report the
// same Stats and FaultedBytes.
func TestReadFileSourceParity(t *testing.T) {
	path := saveFixture(t, nil)
	mapped, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	read, err := openRead(path)
	if err != nil {
		t.Fatal(err)
	}
	defer read.Close()
	for pass := 0; pass < 2; pass++ { // cold, then warm
		want := queryTrace(t, mapped.Graph(), mapped.Index())
		if got := queryTrace(t, read.Graph(), read.Index()); got != want {
			t.Fatalf("pass %d: read-file queries diverge:\n got %q\nwant %q", pass, got, want)
		}
		if got, want := read.Stats(), mapped.Stats(); got != want {
			t.Fatalf("pass %d: Stats %+v, mapped store %+v", pass, got, want)
		}
		if got, want := read.FaultedBytes(), mapped.FaultedBytes(); got != want || got == 0 {
			t.Fatalf("pass %d: FaultedBytes %d, mapped store %d", pass, got, want)
		}
	}
	for _, st := range []*Store{mapped, read} {
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyOnMappedStore: Verify must hold on the mapping too — every
// CRC is computed over the mapped bytes in place — and it leaves the
// residency counters to the lazy loads.
func TestVerifyOnMappedStore(t *testing.T) {
	path := saveFixture(t, []string{"=mohan"})
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s != (Stats{}) {
		t.Fatalf("Verify moved the residency counters: %+v", s)
	}
	st.Index().Lookup("transaction")
	if st.Stats().MappedBytes == 0 {
		t.Fatal("mapped store reports no mapped structural bytes")
	}
}

// TestStructuralFaultAccountingConcurrent: FaultedBytes must count each
// structural segment at most once even when many goroutines race the
// first touch (the sync.Once winner accounts; everyone else just waits).
// Run under -race, and pin the expectation with a serial baseline.
func TestStructuralFaultAccountingConcurrent(t *testing.T) {
	path := saveFixture(t, nil)

	touch := func(st *Store) {
		g, ix := st.Graph(), st.Index()
		for n := graph.NodeID(0); int(n) < g.NumNodes(); n += 97 {
			g.Out(n)
			g.In(n)
			g.Prestige(n)
			g.RIDOf(n)
		}
		ix.Lookup("transaction")
		ix.Lookup("sunita")
	}

	serial, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	touch(serial)
	want := serial.FaultedBytes()
	serial.Close()
	if want == 0 {
		t.Fatal("serial touch faulted nothing")
	}

	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			touch(st)
		}()
	}
	wg.Wait()
	if got := st.FaultedBytes(); got != want {
		t.Fatalf("concurrent first touch faulted %d bytes, serial baseline %d (double counting)", got, want)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForPinnedQueries: Close must not unmap while queries that
// Acquired the store are still reading; once it returns, the store is
// unreachable. Run under -race.
func TestCloseWaitsForPinnedQueries(t *testing.T) {
	st, err := Open(saveFixture(t, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	// Pin before Close starts so every reader is guaranteed in flight.
	for i := 0; i < readers; i++ {
		if !st.Acquire() {
			t.Fatal("Acquire failed on an open store")
		}
	}
	var done int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Release()
			<-start
			s := core.NewSearcher(st.Graph(), st.Index())
			if _, err := s.Search([]string{"soumen", "sunita"}, nil); err != nil {
				t.Error(err)
			}
			atomic.AddInt32(&done, 1)
		}()
	}
	closed := make(chan error, 1)
	go func() {
		close(start)
		closed <- st.Close()
	}()
	err = <-closed
	if err != nil {
		t.Fatal(err)
	}
	// Close returning implies every pinned reader drained first.
	if n := atomic.LoadInt32(&done); n != readers {
		t.Fatalf("Close returned with %d/%d pinned readers still running", n, readers)
	}
	if st.Acquire() {
		t.Fatal("Acquire succeeded after Close")
	}
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
