package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/wal"
)

// memFS is an in-memory wal.FS. The durable workload keeps its replicas'
// logs here: an fsync reaches no device, as on tmpfs, so neither the host's
// disk nor its other tenants set the numbers, and no byte leaves the
// process. Removed and truncated files give their memory back, so log
// compaction is visible in the heap.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	mu   sync.Mutex
	data []byte
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{}, dirs: map[string]bool{}}
}

var _ wal.FS = (*memFS)(nil)

func notExist(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: os.ErrNotExist}
}

func (m *memFS) file(path string) (*memFile, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	return f, ok
}

func (m *memFS) MkdirAll(dir string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Clean(dir)] = true
	return nil
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var out []os.DirEntry
	for path, f := range m.files {
		if filepath.Dir(path) == dir {
			f.mu.Lock()
			size := int64(len(f.data))
			f.mu.Unlock()
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(path), size: size}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	f, ok := m.file(path)
	if !ok {
		return nil, notExist("open", path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) WriteFile(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[filepath.Clean(path)] = &memFile{data: append([]byte(nil), data...)}
	return nil
}

func (m *memFS) OpenAppend(path string) (wal.File, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrExist}
	}
	f := &memFile{}
	m.files[path] = f
	return f, nil
}

func (m *memFS) Truncate(path string, size int64) error {
	f, ok := m.file(path)
	if !ok {
		return notExist("truncate", path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.data)) {
		f.data = append([]byte(nil), f.data[:size]...)
	}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) SyncFile(path string) error {
	if _, ok := m.file(path); !ok {
		return notExist("sync", path)
	}
	return nil
}

func (m *memFS) SyncDir(string) {}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.data = append(f.data, p...)
	f.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memInfo is the fs.FileInfo ReadDir reports for a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
