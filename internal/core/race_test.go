//go:build race

package core_test

// raceEnabled gates the memory-ceiling tests: the race detector's shadow
// memory and allocator make heap figures meaningless.
const raceEnabled = true
