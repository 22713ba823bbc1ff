package core

import (
	"runtime"

	"github.com/banksdb/banks/internal/graph"
)

// drainArenaPool empties the process-wide arena pool, so the next query
// runs on a cold arena rather than one another test warmed. Two GC cycles
// clear a sync.Pool (the first moves its items to the victim cache, the
// second drops them); a pool user running concurrently would defeat
// that, so it panics if an arena survives.
func drainArenaPool() {
	runtime.GC()
	runtime.GC()
	if arenaPool.Get() != nil {
		panic("core: arena pool not empty after two GC cycles")
	}
}

// DrainArenaPool is drainArenaPool for the package's external tests.
var DrainArenaPool = drainArenaPool

// Dist returns the settled distance of v (forward path weight v->origin).
func (it *sspIterator) Dist(v graph.NodeID) (float64, bool) {
	d, _, ok := it.settledState(v)
	if !ok {
		return 0, false
	}
	return d, true
}
