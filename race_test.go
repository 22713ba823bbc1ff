//go:build race

package banks

// raceEnabled gates the allocation-ceiling tests: the race detector's
// shadow memory and allocator make heap figures meaningless.
const raceEnabled = true
