package faultinj

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the filesystem surface the durable store runs on. Writes do not
// fsync: the caller decides when bytes must be durable and calls Sync on
// the file (before renaming it into place) and on its directory (after the
// rename), so a store that commits many files at once pays for one
// directory sync, not one per file. The fault wrapper (NewFS) injects
// failures and torn writes underneath an unchanged store, which is how the
// crash-safety tests reach states that a clean OS run never produces.
type FS interface {
	// WriteFile writes data to path. It does not fsync; call Sync.
	WriteFile(path string, data []byte, perm fs.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Sync fsyncs a file, so its bytes survive a crash, or a directory, so
	// a preceding rename or create in it survives a crash.
	Sync(path string) error
	ReadFile(path string) ([]byte, error)
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(path string) ([]fs.DirEntry, error)
	Remove(path string) error
	RemoveAll(path string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse fsync on directories; a rename is still
	// atomic there, so degrade silently rather than failing checkpoints.
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }

// NewFS wraps inner so writes, renames, syncs, and reads consult the
// injector first. Ops: "fs.write", "fs.rename", "fs.sync" (file and
// directory syncs alike), "fs.read".
// A Tear rule on fs.write reports success but persists only the first half
// of the data — the shape a crash mid-write leaves behind.
func NewFS(inner FS, inj *Injector) FS { return faultFS{inner: inner, inj: inj} }

type faultFS struct {
	inner FS
	inj   *Injector
}

func (f faultFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if r, ok := f.inj.Hit("fs.write"); ok {
		switch r.Kind {
		case Tear:
			return f.inner.WriteFile(path, data[:len(data)/2], perm)
		case Latency, Stall:
			// fall through to the real write after the sleep
			sleep(r)
		default:
			return fmt.Errorf("%w: fs.write %s", ErrInjected, filepath.Base(path))
		}
	}
	return f.inner.WriteFile(path, data, perm)
}

func (f faultFS) Rename(oldpath, newpath string) error {
	if r, ok := f.inj.Hit("fs.rename"); ok && r.Kind != Latency && r.Kind != Stall {
		return fmt.Errorf("%w: fs.rename %s", ErrInjected, filepath.Base(newpath))
	} else if ok {
		sleep(r)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f faultFS) Sync(path string) error {
	if r, ok := f.inj.Hit("fs.sync"); ok && r.Kind != Latency && r.Kind != Stall {
		return fmt.Errorf("%w: fs.sync %s", ErrInjected, filepath.Base(path))
	} else if ok {
		sleep(r)
	}
	return f.inner.Sync(path)
}

func (f faultFS) ReadFile(path string) ([]byte, error) {
	if r, ok := f.inj.Hit("fs.read"); ok {
		switch r.Kind {
		case Truncate:
			data, err := f.inner.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return data[:len(data)/2], nil
		case Latency, Stall:
			sleep(r)
		default:
			return nil, fmt.Errorf("%w: fs.read %s", ErrInjected, filepath.Base(path))
		}
	}
	return f.inner.ReadFile(path)
}

func (f faultFS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f faultFS) ReadDir(path string) ([]fs.DirEntry, error)   { return f.inner.ReadDir(path) }
func (f faultFS) Remove(path string) error                     { return f.inner.Remove(path) }
func (f faultFS) RemoveAll(path string) error                  { return f.inner.RemoveAll(path) }
