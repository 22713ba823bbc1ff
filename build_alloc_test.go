package banks

import (
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
)

// TestEngineBuildAllocations bounds the allocations of one engine build
// (graph.Build + index.BuildWithOptions) on the small DBLP database. The
// rebuild path runs on every NewSystem, Refresh and Compact, and should
// allocate per array and per distinct token, never per FK reference or
// per token occurrence. It measured 1 925 allocations (Go 1.24); the ceiling is 25%
// above that. AllocsPerRun runs on one P, so the build is single-shard.
func TestEngineBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		g, err := graph.Build(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := index.BuildWithOptions(db, g, nil); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2400
	t.Logf("engine build: %.0f allocations (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("engine build allocated %.0f times, ceiling %d", allocs, ceiling)
	}
}
