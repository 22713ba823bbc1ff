//go:build !unix

package store

import "errors"

// mapFile is unavailable off unix: Open then reads the whole store onto
// the heap (openRead) and serves it the same way.
func mapFile(path string) ([]byte, func() error, error) {
	return nil, nil, errors.New("store: memory mapping not supported on this platform")
}

// syncDir is a no-op off unix, where a directory cannot be opened for
// syncing; a rename's durability is left to the file system.
func syncDir(path string) error { return nil }
