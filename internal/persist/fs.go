package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FS is the slice of the filesystem the store uses, abstracted so tests
// can inject IO faults deterministically (see FaultFS). The production
// implementation is OS.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
}

// File is one open log or snapshot file. The store reads with ReadAt
// and writes with WriteAt at offsets it tracks itself, so a failed
// append can be truncated away without trusting any kernel-side append
// position.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Op names one filesystem operation class a FaultFS can fail.
type Op string

// The operation classes a fault can be armed against — each names the
// FS or File method family it intercepts.
const (
	OpOpen   Op = "open"
	OpWrite  Op = "write"
	OpRead   Op = "read"
	OpSync   Op = "sync"
	OpRename Op = "rename"
	OpRemove Op = "remove"
)

// ErrInjected is the error FaultFS returns when no explicit error was
// armed for the failing operation.
var ErrInjected = errors.New("persist: injected io error")

// FaultFS wraps an FS and fails chosen operations on demand: arm a
// fault with Fail and every matching operation after the countdown
// returns the injected error until Clear. The store's crash-recovery
// tests use it to prove that an append, fsync, or rename failing at any
// point never corrupts what was already durable.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	counts map[Op]int
	faults map[Op]*fault
}

type fault struct {
	after int // operations to let through before failing
	err   error
}

// NewFaultFS wraps inner (OS when nil).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, counts: map[Op]int{}, faults: map[Op]*fault{}}
}

// Fail arms op to fail after `after` more successful operations of that
// kind (0 fails the very next one), returning err (ErrInjected when
// nil). The fault stays armed — every later matching operation fails
// too — until Clear.
func (f *FaultFS) Fail(op Op, after int, err error) {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[op] = &fault{after: after, err: err}
}

// Clear disarms every fault.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = map[Op]*fault{}
}

// Count reports how many operations of kind op have been attempted.
func (f *FaultFS) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check counts one operation and returns the injected error when the
// armed fault's countdown has run out.
func (f *FaultFS) check(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	fl := f.faults[op]
	if fl == nil {
		return nil
	}
	if fl.after > 0 {
		fl.after--
		return nil
	}
	return fl.err
}

// OpenFile implements FS: it counts the operation, injects an armed
// open fault, and wraps the returned file so its reads, writes, and
// syncs route through the same fault table.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.check(OpOpen); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(name), err)
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Rename implements FS, injecting armed rename faults.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check(OpRename); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS, injecting armed remove faults.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadDir implements FS; directory listing is never faulted.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// MkdirAll implements FS; directory creation is never faulted.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// faultFile routes the per-file operations through the parent's fault
// table.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpWrite); err != nil {
		// Model a torn write: half the buffer lands before the fault.
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpRead); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.fs.check(OpSync); err != nil {
		return err
	}
	return f.File.Sync()
}
