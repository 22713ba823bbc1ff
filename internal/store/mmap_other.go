//go:build !linux

package store

import (
	"errors"
	"os"
)

// mmapSource is unavailable off Linux: Open falls back to serving the
// store through plain file reads (the copy path), which is functionally
// identical — zero-copy views then come only from in-memory sources (Mem).
type mmapSource struct{}

var errNoMmap = errors.New("store: memory mapping not supported on this platform")

func mapFile(f *os.File, size int64) (*mmapSource, error) { return nil, errNoMmap }

func (m *mmapSource) ReadAt(p []byte, off int64) (int, error) { return 0, errNoMmap }
func (m *mmapSource) ViewAt(off, n int64) ([]byte, bool)      { return nil, false }
func (m *mmapSource) Close() error                            { return nil }
