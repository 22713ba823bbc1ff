//go:build linux

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSource serves a store file as a read-only memory mapping: ViewAt
// returns sub-slices of the mapping, so segments are never copied onto the
// Go heap — residency is kernel-managed and N processes opening the same
// store share one page-cache copy. The fd is closed right after mapping
// (the mapping keeps the pages); Close unmaps.
type mmapSource struct {
	data []byte
}

// mapFile maps f read-only. Callers may close f once this returns.
func mapFile(f *os.File, size int64) (*mmapSource, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: cannot map %d bytes", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("store: mmap: %w", err)
	}
	return &mmapSource{data: data}, nil
}

func (m *mmapSource) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.data)) {
		return 0, fmt.Errorf("store: read at %d outside mapping of %d bytes", off, len(m.data))
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("store: read [%d, %d) overruns mapping of %d bytes", off, off+int64(len(p)), len(m.data))
	}
	return n, nil
}

func (m *mmapSource) ViewAt(off, n int64) ([]byte, bool) {
	if off < 0 || n < 0 || off+n > int64(len(m.data)) {
		return nil, false
	}
	return m.data[off : off+n : off+n], true
}

func (m *mmapSource) Close() error {
	data := m.data
	m.data = nil
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
