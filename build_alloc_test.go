package banks

import (
	"testing"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/index"
)

// TestEngineBuildAllocations bounds the allocations of one engine build
// (index.BuildEngine, the path a rebuild runs) on the small DBLP database.
// The rebuild path runs on every NewSystem and rebuilding Compact, and
// should allocate per array, never per FK reference, per distinct token
// or per token occurrence. It measured 343 allocations (Go 1.24); the
// ceiling is 25% above that. AllocsPerRun runs on one P, so the build is
// single-shard.
func TestEngineBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, err := datagen.BuildDBLP(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := index.BuildEngine(db, nil); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 430
	t.Logf("engine build: %.0f allocations (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("engine build allocated %.0f times, ceiling %d", allocs, ceiling)
	}
}
