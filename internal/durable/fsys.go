package durable

import (
	"io"
	"os"
)

// fileSys is the one seam through which the log, the manifest,
// compaction and recovery touch the disk: osFS in production, a model
// disk that keeps only what was synced in the crash tests. Spill files
// stay on os: recovery never reads them.
type fileSys interface {
	create(path string, excl bool) (file, error) // O_EXCL, else O_TRUNC
	readFile(path string) ([]byte, error)
	readDir(dir string) ([]os.DirEntry, error)
	rename(from, to string) error
	remove(path string) error
	truncate(path string, size int64) error // cut, then fsync
	mkdirAll(dir string) error
	syncDir(dir string) error // makes creates and renames in dir durable
}

// file is the write half of the seam; *os.File satisfies it.
type file interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

type osFS struct{}

// create opens path write-only in append mode, so a write after a
// Truncate lands at the new end.
func (osFS) create(path string, excl bool) (file, error) {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND | os.O_TRUNC
	if excl {
		flag ^= os.O_TRUNC | os.O_EXCL
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil file
	}
	return f, nil
}

func (osFS) readFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) readDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) remove(path string) error                  { return os.Remove(path) }
func (osFS) mkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }

func (osFS) truncate(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
