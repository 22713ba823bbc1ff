package banks

import (
	"fmt"
	"io"

	"github.com/banksdb/banks/internal/store"
)

// Engine persistence: one format, the segmented store (internal/store,
// magic "BANKSST1") — a versioned, checksummed file of independent
// segments behind a directory. Save writes it; OpenSystem opens it
// lazily — cold start reads the directory and one small metadata
// segment; arcs, node metadata and postings fault in on first touch,
// served from a read-only mapping of the file whose residency the kernel
// bounds (the EMBANKS disk-based serving mode).

// warmKeyLimit caps how many hot match-cache keys Save records for warmup.
const warmKeyLimit = 512

// storeEngine snapshots the current engine as a store.Engine, recording
// the match cache's hot keys so the saved store can pre-warm a later
// process with this workload's favourite terms. Overlay engines (live
// mutations pending compaction) cannot be persisted directly — Compact
// folds the delta into concrete structures first.
func (e *engine) storeEngine() (store.Engine, error) {
	g, ix, ok := e.concrete()
	if !ok {
		return store.Engine{}, fmt.Errorf("engine holds uncompacted live mutations; call Compact before saving")
	}
	return store.Engine{
		Graph:    g,
		Index:    ix,
		WarmKeys: e.cache.HotKeys(warmKeyLimit),
		WALSeq:   e.walSeq,
	}, nil
}

// Save persists the current engine snapshot to path in the segmented
// store format, atomically (temp file + rename): a crash mid-save never
// leaves a torn file, and a reader holding the old store is undisturbed.
// If path already holds a file that is not a BANKS store, Save refuses
// rather than destroy it.
//
// The row data itself is not included; pair the store with the same
// database contents (for example via Database.DumpSQL replayed through
// ExecScript), then reopen with OpenSystem.
func (s *System) Save(path string) error {
	se, err := s.engine().storeEngine()
	if err != nil {
		return fmt.Errorf("banks: %w", err)
	}
	if err := store.WriteFile(path, se); err != nil {
		return fmt.Errorf("banks: %w", err)
	}
	return nil
}

// OpenSystem opens a store written by Save over db with
// zero rebuild work: the open reads the store's directory and graph
// metadata, and every other segment — CSR arcs, node metadata, index
// postings — loads lazily on first touch, so cold start takes
// milliseconds where NewSystem pays the full SQL→graph→index build.
//
// db must hold the same rows the store was built from (tuple rendering
// reads rows by the RIDs recorded in the store). If the store records
// match-cache warmup terms, they are re-resolved in the background so the
// hot set is cached without delaying the open.
//
// Close the returned System to release the store file — after in-flight
// queries have finished.
func OpenSystem(path string, db *Database, opts *SystemOptions) (*System, error) {
	if db == nil {
		return nil, fmt.Errorf("banks: OpenSystem requires a database")
	}
	s := &System{db: db}
	if opts != nil {
		s.opts = *opts
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("banks: %w", err)
	}
	if err := s.installStoreEngine(st); err != nil {
		st.Close()
		return nil, err
	}
	if err := s.attachLiveMutations(st); err != nil {
		st.Close()
		return nil, err
	}
	return s, nil
}

// installStoreEngine wires an opened store into s and kicks off the
// asynchronous match-cache warmup. The engine is fully stamped —
// including the store's recorded WAL sequence — before it is published,
// so no field is ever written after another goroutine can load it.
func (s *System) installStoreEngine(st *store.Store) error {
	seq, err := st.WALSeq()
	if err != nil {
		return fmt.Errorf("banks: reading store WAL sequence: %w", err)
	}
	eng := newEngine(st.Graph(), st.Index(), s.opts)
	eng.st = st
	eng.walSeq = seq
	eng.searcher.WithFaultMeter(st.FaultedBytes)
	s.store = st
	s.eng.Store(eng)
	s.synced = s.db.inner.Writes()
	if keys, err := st.WarmKeys(); err == nil && len(keys) > 0 {
		go func() {
			// The warmer races Close: hold a store reference so the byte
			// source (an mmap) cannot be unmapped under its lazy reads.
			if !st.Acquire() {
				return
			}
			defer st.Release()
			eng.cache.Warm(eng.ix, eng.epoch, keys)
		}()
	}
	return nil
}

// DumpSQL writes the database as a replayable SQL script, referenced
// tables first.
func (d *Database) DumpSQL(w io.Writer) error { return d.inner.DumpSQL(w) }
