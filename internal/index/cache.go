package index

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/banksdb/banks/internal/graph"
)

// MatchCache is a bounded, sharded LRU cache of keyword match sets — the
// server-side caching Mragyati argues for, applied to the hot path of §3:
// resolving a search term to its node set. An exact lookup is a binary
// search of the sorted dictionary and one posting list, a prefix lookup
// merges the lists of a whole dictionary range, and skewed query
// workloads repeat the same few terms constantly; the cache turns both
// into one mutex-protected map hit.
//
// A MatchCache serves a sequence of immutable engine snapshots, each
// stamped with an epoch. Within one epoch the snapshot never changes, so
// entries need no invalidation; when a mutation batch publishes a new
// snapshot, the publisher calls Invalidate with the next epoch and the
// set of touched tokens, and only the entries those tokens could have
// changed are dropped — everything else carries over warm. Every lookup
// carries the reader's snapshot epoch: a reader pinned to an old
// snapshot never consumes an entry written for a newer one (whose node
// IDs may exceed the old snapshot's arena), and a writer resolving
// against an old snapshot can never install a stale entry after the
// epoch has moved on.
//
// The cache is safe for concurrent use. A nil *MatchCache is valid and
// disables caching: every method falls through to the underlying index.
type MatchCache struct {
	shards      []matchCacheShard
	hits        atomic.Int64
	misses      atomic.Int64
	epoch       atomic.Uint64 // current snapshot epoch; put checks writers against it
	invalidated atomic.Int64  // entries dropped by Invalidate, cumulative

	// hist remembers the touched-token sets of recent invalidations so
	// put can admit a writer that resolved under an older epoch when its
	// key was not touched by any intervening publish. Without it, a
	// sustained Apply cadence shorter than one term resolution would
	// reject every insert and the cache could never repopulate. Entries
	// are consecutive by epoch; the ring is bounded by epochHistory.
	histMu sync.Mutex
	hist   []epochTouch
}

// epochTouch is one invalidation: the epoch it installed and the swept
// tokens (normalized; toks sorted for the covering-prefix test).
type epochTouch struct {
	epoch uint64
	exact map[string]bool
	toks  []string
}

// epochHistory bounds the invalidation ring. A writer older than the
// ring's reach is rejected outright, so the window only needs to cover
// the epochs a slow term resolution can realistically straddle.
const epochHistory = 256

// Sharding spreads lock contention across independent LRUs; the key's
// FNV-1a hash picks the shard. The shard count scales with the budget
// (one shard per MiB, capped) so the per-shard budget — which is also the
// admission ceiling for a single match set — never drops below
// minShardBudget for multi-shard caches: a big cache must still be able
// to admit the huge match sets of short prefixes, which are exactly the
// lookups worth caching.
const (
	maxMatchCacheShards = 16
	minShardBudget      = 1 << 20
)

// matchEntryOverhead approximates the fixed per-entry cost (map bucket
// share, list element, entry header) charged against the byte budget on
// top of the key and postings payload.
const matchEntryOverhead = 96

type matchCacheShard struct {
	mu    sync.Mutex
	max   int64 // byte budget for this shard
	bytes int64 // current charged bytes
	items map[string]*list.Element
	lru   list.List // front = most recently used
}

type matchCacheEntry struct {
	key   string
	m     Match
	size  int64
	epoch uint64 // epoch the entry was resolved under
}

// NewMatchCache returns a cache bounded to roughly maxBytes of postings
// (split evenly across shards). maxBytes <= 0 returns nil — the valid
// "caching disabled" cache. A single match set larger than the per-shard
// budget (the whole budget for caches under 2 MiB, at least 1 MiB
// otherwise) is served but never cached.
func NewMatchCache(maxBytes int64) *MatchCache {
	if maxBytes <= 0 {
		return nil
	}
	n := int(maxBytes / minShardBudget)
	if n < 1 {
		n = 1
	}
	if n > maxMatchCacheShards {
		n = maxMatchCacheShards
	}
	c := &MatchCache{shards: make([]matchCacheShard, n)}
	per := maxBytes / int64(n)
	if per < matchEntryOverhead {
		per = matchEntryOverhead
	}
	for i := range c.shards {
		c.shards[i].max = per
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *MatchCache) shard(key string) *matchCacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

func (c *MatchCache) get(key string, epoch uint64) (Match, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return Match{}, false
	}
	e := el.Value.(*matchCacheEntry)
	if e.epoch > epoch {
		// Written for a newer snapshot: its node IDs may not exist in
		// this reader's snapshot. Treat as a miss; do not evict — newer
		// readers still want it.
		return Match{}, false
	}
	s.lru.MoveToFront(el)
	return e.m, true
}

func (c *MatchCache) put(key string, m Match, epoch uint64) {
	size := int64(len(key)) + 4*int64(len(m.Nodes)) + 4*int64(len(m.Tables)) + matchEntryOverhead
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := c.epoch.Load(); epoch != cur {
		// The writer resolved against a snapshot that is no longer
		// current; its value is stale if any intervening publish touched
		// this key. The invalidation history proves innocence for
		// untouched keys — essential under a sustained Apply cadence,
		// where most resolutions finish an epoch or two late. Checked
		// under the shard lock so a put racing the current sweep can only
		// land before it (which then removes the entry).
		if epoch > cur || !c.untouchedSince(key, epoch) {
			return
		}
	}
	if size > s.max {
		return // would evict the whole shard and still not fit
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*matchCacheEntry)
		s.bytes += size - e.size
		e.m, e.size, e.epoch = m, size, epoch
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&matchCacheEntry{key: key, m: m, size: size, epoch: epoch})
		s.bytes += size
	}
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := s.lru.Remove(back).(*matchCacheEntry)
		delete(s.items, e.key)
		s.bytes -= e.size
	}
}

// Cached lookups use a one-byte kind prefix so an exact term and a prefix
// term with the same spelling occupy distinct entries.
const (
	exactKeyPrefix  = "="
	prefixKeyPrefix = "~"
)

// normalizeTerm is the normalization every cached lookup applies before
// keying.
func normalizeTerm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// peekExact probes the cache for an already-normalized token, counting a
// hit. It is the single place the exact-lookup key scheme lives. epoch is
// the reader's snapshot epoch. Safe on nil (always a miss, uncounted).
func (c *MatchCache) peekExact(tok string, epoch uint64) (Match, bool) {
	if c == nil {
		return Match{}, false
	}
	m, ok := c.get(exactKeyPrefix+tok, epoch)
	if ok {
		c.hits.Add(1)
	}
	return m, ok
}

// peekPrefix is peekExact for the prefix-lookup keys.
func (c *MatchCache) peekPrefix(tok string, epoch uint64) (Match, bool) {
	if c == nil {
		return Match{}, false
	}
	m, ok := c.get(prefixKeyPrefix+tok, epoch)
	if ok {
		c.hits.Add(1)
	}
	return m, ok
}

// Lookup is Index.Lookup through the cache: the match set for one search
// term, cached under its normalized token. epoch is the snapshot epoch of
// the ix the caller resolves against. Empty matches are cached too —
// skewed workloads repeat misses as much as hits. Callers must not mutate
// the returned slices (they are shared with the index and other callers).
func (c *MatchCache) Lookup(ix View, epoch uint64, term string) Match {
	if c == nil {
		return ix.Lookup(term)
	}
	tok := normalizeTerm(term)
	if m, ok := c.peekExact(tok, epoch); ok {
		return m
	}
	c.misses.Add(1)
	m := ix.Lookup(tok)
	c.put(exactKeyPrefix+tok, m, epoch)
	return m
}

// LookupPrefix is Index.LookupPrefix through the cache. This is the
// expensive lookup — the index sorts and merges the posting lists of
// every matching token — so caching it turns repeats into one map hit.
// Callers must not mutate the returned slice.
func (c *MatchCache) LookupPrefix(ix View, epoch uint64, prefix string) []graph.NodeID {
	if c == nil {
		return ix.LookupPrefix(prefix)
	}
	tok := normalizeTerm(prefix)
	if m, ok := c.peekPrefix(tok, epoch); ok {
		return m.Nodes
	}
	c.misses.Add(1)
	ns := ix.LookupPrefix(tok)
	c.put(prefixKeyPrefix+tok, Match{Nodes: ns}, epoch)
	return ns
}

// Epoch returns the snapshot epoch the cache currently serves. Safe on a
// nil cache (0).
func (c *MatchCache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Invalidate advances the cache to epoch and drops every entry the
// touched tokens could have changed: the exact entry of each touched
// token, and any prefix entry whose prefix covers a touched token (its
// match set gains or loses that token's postings). Entries for untouched
// terms survive — a mutation batch appends node IDs and never renumbers,
// so an untouched term's match set is byte-identical in the new
// snapshot. The epoch is stored before the sweep: combined with put's
// under-lock epoch check, an in-flight resolver racing the publish
// either lands before the sweep (and is removed) or is rejected.
// Safe on a nil cache (no-op).
func (c *MatchCache) Invalidate(epoch uint64, touched []string) {
	if c == nil {
		return
	}
	if len(touched) == 0 {
		c.epoch.Store(epoch)
		return
	}
	toks := make([]string, 0, len(touched))
	for _, t := range touched {
		toks = append(toks, normalizeTerm(t))
	}
	sort.Strings(toks)
	exact := make(map[string]bool, len(toks))
	for _, t := range toks {
		exact[t] = true
	}
	// Record the touched set before the epoch flips: a put that observes
	// the new epoch must also observe this history entry when it checks
	// whether its key survived the intervening publishes.
	c.histMu.Lock()
	c.hist = append(c.hist, epochTouch{epoch: epoch, exact: exact, toks: toks})
	if len(c.hist) > epochHistory {
		c.hist = append(c.hist[:0], c.hist[len(c.hist)-epochHistory:]...)
	}
	c.histMu.Unlock()
	c.epoch.Store(epoch)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var dead []*list.Element
		for key, el := range s.items {
			kind, tok := key[:1], key[1:]
			stale := false
			switch kind {
			case exactKeyPrefix:
				stale = exact[tok]
			case prefixKeyPrefix:
				// Stale iff some touched token starts with this prefix:
				// the first sorted token >= the prefix is the candidate.
				j := sort.SearchStrings(toks, tok)
				stale = j < len(toks) && strings.HasPrefix(toks[j], tok)
			}
			if stale {
				dead = append(dead, el)
			}
		}
		for _, el := range dead {
			e := s.lru.Remove(el).(*matchCacheEntry)
			delete(s.items, e.key)
			s.bytes -= e.size
		}
		c.invalidated.Add(int64(len(dead)))
		s.mu.Unlock()
	}
}

// untouchedSince reports whether the invalidation history proves that no
// publish after epoch since touched key — the admission rule for writers
// that resolved under an older snapshot. Epochs advance by one per
// touching publish, so the ring holds consecutive epochs and covers
// (since, now] iff its oldest entry is at most since+1; a writer older
// than the ring's reach is rejected. Entries newer than the epoch the
// caller loaded are checked too — that is conservative (an unrelated
// concurrent invalidation can only cause a spurious reject, never a
// wrong admit).
func (c *MatchCache) untouchedSince(key string, since uint64) bool {
	kind, tok := key[:1], key[1:]
	c.histMu.Lock()
	defer c.histMu.Unlock()
	if len(c.hist) == 0 || c.hist[0].epoch > since+1 {
		return false
	}
	for i := len(c.hist) - 1; i >= 0; i-- {
		h := &c.hist[i]
		if h.epoch <= since {
			break
		}
		switch kind {
		case exactKeyPrefix:
			if h.exact[tok] {
				return false
			}
		case prefixKeyPrefix:
			j := sort.SearchStrings(h.toks, tok)
			if j < len(h.toks) && strings.HasPrefix(h.toks[j], tok) {
				return false
			}
		}
	}
	return true
}

// Invalidated returns the cumulative number of entries dropped by
// Invalidate. Safe on a nil cache (0).
func (c *MatchCache) Invalidated() int64 {
	if c == nil {
		return 0
	}
	return c.invalidated.Load()
}

// HotKeys returns up to max resident cache keys in roughly most-recently-
// used order (each shard's LRU walked front to back, shards interleaved).
// Keys keep their kind prefix, so they round-trip through Warm; the store
// records them at save time as the match-cache warmup segment. Safe on a
// nil cache (nil result).
func (c *MatchCache) HotKeys(max int) []string {
	if c == nil || max <= 0 {
		return nil
	}
	perShard := make([][]string, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil && len(perShard[i]) < max; el = el.Next() {
			perShard[i] = append(perShard[i], el.Value.(*matchCacheEntry).key)
		}
		s.mu.Unlock()
	}
	var out []string
	for round := 0; len(out) < max; round++ {
		progressed := false
		for _, keys := range perShard {
			if round < len(keys) {
				out = append(out, keys[round])
				progressed = true
				if len(out) == max {
					return out
				}
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Warm replays recorded cache keys (from HotKeys) against ix, populating
// the cache with the match sets a previous process ran hot on. epoch is
// the snapshot epoch ix belongs to; if the cache has moved past it the
// replayed entries are silently rejected. Unknown key kinds are skipped,
// so warm segments from newer formats degrade gracefully. Safe on a nil
// cache (no-op).
func (c *MatchCache) Warm(ix View, epoch uint64, keys []string) {
	if c == nil {
		return
	}
	for _, k := range keys {
		if len(k) < 2 {
			continue
		}
		switch k[:1] {
		case exactKeyPrefix:
			c.Lookup(ix, epoch, k[1:])
		case prefixKeyPrefix:
			c.LookupPrefix(ix, epoch, k[1:])
		}
	}
}

// CacheStats is a point-in-time summary of a MatchCache.
type CacheStats struct {
	Hits        int64  // lookups served from the cache
	Misses      int64  // lookups that fell through to the index
	Entries     int    // resident match sets
	Bytes       int64  // charged bytes (keys + postings + overhead)
	MaxBytes    int64  // configured byte budget
	Epoch       uint64 // current snapshot epoch
	Invalidated int64  // entries dropped by Invalidate, cumulative
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns current counters. Safe on a nil cache (all zeros).
func (c *MatchCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Epoch:       c.epoch.Load(),
		Invalidated: c.invalidated.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		st.MaxBytes += s.max
		s.mu.Unlock()
	}
	return st
}
