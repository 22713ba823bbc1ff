package store

import (
	"fmt"
	"os"
)

// openRead is Open without the mapping: the whole file is read onto the
// heap and served by the same code. Open falls back to it where the
// platform has no mmap or mapping fails.
func openRead(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return openBytes(data, nil)
}
