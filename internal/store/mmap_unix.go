//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the file at path read-only and returns the mapping with
// the function that unmaps it. Segments served from the mapping are never
// copied onto the Go heap: residency is kernel-managed, and N processes
// opening the same store share one page-cache copy. The fd is closed
// before returning; the mapping keeps the pages.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, fmt.Errorf("store: cannot map %d bytes", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// syncDir flushes the directory at path, making a rename inside it
// durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
