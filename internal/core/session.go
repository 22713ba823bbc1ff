package core

import "context"

// Session is the zero-allocation query interface of a Searcher: it owns
// one searchArena for its whole lifetime and runs every query in borrow
// mode, so answers, their edge and term-node lists, the stats block and
// the result slice are all carved from arena-owned storage. In steady
// state (after the arena's buffers have grown to the workload's high-water
// mark) a Session query performs no heap allocation at all.
//
// The price is a strict borrowing contract: everything a query returns —
// the []*Answer slice, each Answer and its slices, and the *Stats — is
// valid only until the next Query or Close call on the same Session.
// Callers that need results to outlive the next query must copy them.
// A Session is single-threaded: it must not be used from two goroutines
// concurrently (use one Session per worker; the Searcher itself remains
// safe to share).
type Session struct {
	s  *Searcher
	ar *searchArena
}

// NewSession checks a dedicated arena out of the process-wide pool every
// Searcher shares, widened to the Searcher's view if it is narrower, and
// returns a Session bound to it. Close returns the arena; an unclosed
// Session simply keeps its arena out of circulation (it is collected with
// the Session, so forgetting Close wastes memory, not correctness).
func (s *Searcher) NewSession() *Session {
	ar := acquireArena(s.g)
	ar.borrow = true
	return &Session{s: s, ar: ar}
}

// Query is Searcher.Query under the Session's borrowing contract: the
// returned answers and stats live in the Session's arena and are
// invalidated by the next Query or Close call.
func (ss *Session) Query(ctx context.Context, req Request, opts *Options, cb func(*Answer) bool) ([]*Answer, *Stats, error) {
	return ss.s.queryInArena(ctx, req, opts, cb, ss.ar)
}

// Close returns the Session's arena to the process-wide pool, where any
// Searcher's next query may draw it: release drops everything that
// belonged to this Searcher's snapshot first. The Session must not be used
// afterwards; outstanding borrowed results are invalidated.
func (ss *Session) Close() {
	if ss.ar == nil {
		return
	}
	ss.ar.borrow = false
	releaseArena(ss.ar)
	ss.ar = nil
	ss.s = nil
}
