package serve

import (
	"sync"
	"time"
)

// SlowQuery is one entry of the slow-query log: the request as the user
// typed it, where it ran, how long it took, and the search's execution
// statistics (the web door records a *cluster.Stats for a single
// engine and a cluster alike, carried as any so this package stays
// engine-agnostic) — enough to diagnose why it was slow without
// re-running it.
type SlowQuery struct {
	When     time.Time     `json:"when"`
	Query    string        `json:"query"`
	Strategy string        `json:"strategy"`
	Class    string        `json:"class"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Detail   any           `json:"detail,omitempty"`
}

// SlowLog is a bounded ring of the most recent slow queries. It is safe
// for concurrent use; a nil *SlowLog discards everything.
type SlowLog struct {
	mu      sync.Mutex
	entries []SlowQuery
	next    int
	full    bool
}

// NewSlowLog returns a ring holding the last capacity entries
// (capacity <= 0: 64).
func NewSlowLog(capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &SlowLog{entries: make([]SlowQuery, capacity)}
}

// Add records one slow query.
func (l *SlowLog) Add(q SlowQuery) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[l.next] = q
	l.next++
	if l.next == len(l.entries) {
		l.next = 0
		l.full = true
	}
}

// Entries returns the recorded queries, most recent first.
func (l *SlowLog) Entries() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.entries)
	}
	out := make([]SlowQuery, 0, n)
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.entries)
		}
		out = append(out, l.entries[idx])
	}
	return out
}
