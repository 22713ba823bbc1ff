package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
)

// Engine is what gets persisted: the built graph and index, plus the
// match-cache keys that were hot at save time (from MatchCache.HotKeys) so
// a later Open can pre-warm its cache with the workload's favourites.
type Engine struct {
	Graph    *graph.Graph
	Index    *index.Index
	WarmKeys []string
	// WALSeq is the sequence number of the last WAL batch whose effects
	// this engine already contains; replay on reopen skips seq <= WALSeq.
	// 0 (the default) means "no WAL history folded in".
	WALSeq uint64
	// TermStats is the partition's term-statistics sketch for the cluster
	// routing broker, already encoded (internal/cluster owns the format;
	// the store treats it as opaque bytes). Empty means "no sketch".
	TermStats []byte
}

// Write streams eng to w in the segmented store format. The output is
// deterministic for a given engine and warm-key list. Writing a lazily
// opened engine re-saves it (segments are materialized as needed).
func Write(w io.Writer, eng Engine) error {
	if eng.Graph == nil || eng.Index == nil {
		return errors.New("store: Write requires a graph and an index")
	}
	if eng.Index.NumNodes() != eng.Graph.NumNodes() {
		return fmt.Errorf("store: index built for %d nodes, graph has %d",
			eng.Index.NumNodes(), eng.Graph.NumNodes())
	}

	nodeMeta, err := eng.Graph.EncodeNodeMeta()
	if err != nil {
		return fmt.Errorf("store: encoding node metadata: %w", err)
	}
	arcs, err := eng.Graph.EncodeArcs()
	if err != nil {
		return fmt.Errorf("store: encoding arcs: %w", err)
	}
	dict, postings, err := encodePostings(eng.Index)
	if err != nil {
		return fmt.Errorf("store: encoding postings: %w", err)
	}

	segments := []struct {
		kind kind
		data []byte
	}{
		{kindGraphMeta, eng.Graph.EncodeMeta()},
		{kindNodeMeta, nodeMeta},
		{kindGraphArcs, arcs},
		{kindTermDict, dict},
		{kindPostings, postings},
		{kindWarmTerms, encodeWarmKeys(eng.WarmKeys)},
		{kindWALSeq, binary.BigEndian.AppendUint64(nil, eng.WALSeq)},
		{kindTermStats, eng.TermStats},
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.BigEndian.PutUint32(hdr[8:], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	off := uint64(headerSize)
	var pad [segAlign]byte
	entries := make([]dirEntry, 0, len(segments))
	for _, seg := range segments {
		if seg.kind == kindWarmTerms && len(eng.WarmKeys) == 0 {
			continue
		}
		if seg.kind == kindWALSeq && eng.WALSeq == 0 {
			continue
		}
		if seg.kind == kindTermStats && len(eng.TermStats) == 0 {
			continue
		}
		// Align the segment start so an mmap-opened store can alias the
		// segment's fixed-width arrays in place (readers ignore the gap).
		if rem := off % segAlign; rem != 0 {
			n := segAlign - rem
			if _, err := bw.Write(pad[:n]); err != nil {
				return fmt.Errorf("store: writing padding: %w", err)
			}
			off += n
		}
		if _, err := bw.Write(seg.data); err != nil {
			return fmt.Errorf("store: writing %s segment: %w", seg.kind, err)
		}
		entries = append(entries, dirEntry{
			kind:   seg.kind,
			off:    off,
			length: uint64(len(seg.data)),
			crc:    checksum(seg.data),
		})
		off += uint64(len(seg.data))
	}
	dir := encodeDirectory(entries)
	if _, err := bw.Write(dir); err != nil {
		return fmt.Errorf("store: writing directory: %w", err)
	}
	var foot [footerSize]byte
	binary.BigEndian.PutUint64(foot[0:], off)
	binary.BigEndian.PutUint64(foot[8:], uint64(len(dir)))
	binary.BigEndian.PutUint32(foot[16:], checksum(dir))
	copy(foot[20:], footerMagic)
	if _, err := bw.Write(foot[:]); err != nil {
		return fmt.Errorf("store: writing footer: %w", err)
	}
	return bw.Flush()
}

// WriteFile persists eng to path atomically and durably: the store is
// written to a temp file in the same directory, synced, and installed
// with RenameSync, so a crash mid-save never leaves a torn store, a
// returned WriteFile survives a crash, and concurrent readers of the old
// file are undisturbed.
//
// Overwrite guard: if path already exists with content that is not a
// BANKS store, WriteFile refuses — a mistyped path must not silently
// destroy an unrelated data file.
func WriteFile(path string, eng Engine) error {
	if err := guardOverwrite(path); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := Write(tmp, eng); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", tmp.Name(), err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("store: closing %s: %w", name, err)
	}
	tmp = nil
	if err := RenameSync(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: installing %s: %w", path, err)
	}
	return nil
}

// RenameSync renames from to to, then syncs to's directory so the rename
// itself survives a crash. Callers that drop the write-ahead log after
// installing a store need that order: without the directory sync a crash
// may bring back the old store beside an already-emptied log.
func RenameSync(from, to string) error {
	if err := os.Rename(from, to); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(to)); err != nil {
		return fmt.Errorf("syncing the directory of %s: %w", to, err)
	}
	return nil
}

// guardOverwrite refuses to replace an existing non-empty file whose magic
// is not the store's.
func guardOverwrite(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: checking %s: %w", path, err)
	}
	defer f.Close()
	var head [8]byte
	n, err := io.ReadFull(f, head[:])
	if n == 0 {
		return nil // empty file: nothing to destroy
	}
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("store: checking %s: %w", path, err)
	}
	if string(head[:n]) == Magic {
		return nil
	}
	return fmt.Errorf("store: refusing to overwrite %s: existing content is not a BANKS store (magic %q)", path, head[:n])
}

// encodePostings renders the term dictionary and postings segments: the
// postings segment concatenates one delta-varint block per term (ascending
// token order), and the dictionary maps each token to its count and block
// {offset, length, crc32c} so a single term resolves with one block read —
// no neighbouring postings are touched.
func encodePostings(ix *index.Index) (dict, postings []byte, err error) {
	var blocks []byte
	type ref struct {
		tok      string
		count    int
		off, ln  uint64
		checksum uint32
	}
	var refs []ref
	err = ix.ForEachTermSorted(func(tok string, ns []graph.NodeID) {
		start := len(blocks)
		prev := graph.NodeID(0)
		for _, n := range ns {
			blocks = binary.AppendUvarint(blocks, uint64(n-prev))
			prev = n
		}
		refs = append(refs, ref{
			tok:      tok,
			count:    len(ns),
			off:      uint64(start),
			ln:       uint64(len(blocks) - start),
			checksum: checksum(blocks[start:]),
		})
	})
	if err != nil {
		return nil, nil, err
	}

	var d []byte
	d = binary.AppendUvarint(d, uint64(ix.NumNodes()))
	d = binary.AppendUvarint(d, uint64(ix.NumPostings()))
	d = binary.AppendUvarint(d, uint64(len(refs)))
	for _, r := range refs {
		d = binary.AppendUvarint(d, uint64(len(r.tok)))
		d = append(d, r.tok...)
		d = binary.AppendUvarint(d, uint64(r.count))
		d = binary.AppendUvarint(d, r.off)
		d = binary.AppendUvarint(d, r.ln)
		d = binary.LittleEndian.AppendUint32(d, r.checksum)
	}
	meta := ix.MetaTables()
	mtoks := make([]string, 0, len(meta))
	for tok := range meta {
		mtoks = append(mtoks, tok)
	}
	sort.Strings(mtoks)
	d = binary.AppendUvarint(d, uint64(len(mtoks)))
	for _, tok := range mtoks {
		d = binary.AppendUvarint(d, uint64(len(tok)))
		d = append(d, tok...)
		ts := meta[tok]
		d = binary.AppendUvarint(d, uint64(len(ts)))
		for _, t := range ts {
			d = binary.AppendUvarint(d, uint64(t))
		}
	}
	return d, blocks, nil
}

func encodeWarmKeys(keys []string) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return buf
}
