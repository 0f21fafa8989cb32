package durable

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// memFS is a model disk behind the fileSys seam. Per file it keeps the
// bytes written and the bytes synced; for the namespace, the names as
// processes see them and the names as of the last syncDir, so a create,
// rename or remove that was never dir-synced is undone by a crash. A
// failed fsync behaves as on Linux: the bytes it covered are dropped
// from write-back, so a later successful fsync commits zeros in their
// place, and they read back as zeros once the page cache lets them go.
//
// A crash at seam call crashAt makes that call and every later one fail
// without effect; image then returns the disk the power cut left. fail
// injects an I/O error into the calls it picks instead: a write so
// failed writes half its bytes first.
type memFS struct {
	mu       sync.Mutex
	live     map[string]*memFile
	durable  map[string]*memFile
	last     *memFile // written most recently
	ops      []memOp  // every seam call so far
	crashAt  int      // -1: never
	crashed  bool
	fail     func(op memOp) bool
	logSyncs int // successful fsyncs of log segments
}

// memOp is one seam call: its kind and the base name of its file.
type memOp struct{ kind, name string }

type memFile struct {
	fs     *memFS
	name   string
	data   []byte   // as written
	synced []byte   // as on the disk
	lost   [][2]int // byte ranges a failed fsync dropped
}

var (
	errCrashed  = errors.New("memfs: machine crashed")
	errInjected = syscall.EIO
)

func newMemFS() *memFS {
	return &memFS{live: map[string]*memFile{}, durable: map[string]*memFile{}, crashAt: -1}
}

// step records one seam call and reports the error it must fail with.
// The caller holds fs.mu.
func (fs *memFS) step(kind, path string) error {
	op := memOp{kind, filepath.Base(path)}
	fs.ops = append(fs.ops, op)
	if fs.crashed || len(fs.ops)-1 == fs.crashAt {
		fs.crashed = true
		return errCrashed
	}
	if fs.fail != nil && fs.fail(op) {
		return errInjected
	}
	return nil
}

func (fs *memFS) isCrashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

func (fs *memFS) syncCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.logSyncs
}

func notExist(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: os.ErrNotExist}
}

func (fs *memFS) create(path string, excl bool) (file, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("create", path); err != nil {
		return nil, err
	}
	if f, ok := fs.live[path]; ok {
		if excl {
			return nil, &os.PathError{Op: "create", Path: path, Err: os.ErrExist}
		}
		f.data = nil
		return f, nil
	}
	f := &memFile{fs: fs, name: path}
	fs.live[path] = f
	return f, nil
}

func (fs *memFS) readFile(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("readfile", path); err != nil {
		return nil, err
	}
	f, ok := fs.live[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return f.dropLost(append([]byte(nil), f.data...)), nil
}

func (fs *memFS) readDir(dir string) ([]os.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("readdir", dir); err != nil {
		return nil, err
	}
	var ents []os.DirEntry
	for path := range fs.live {
		if filepath.Dir(path) == dir {
			ents = append(ents, memEntry(filepath.Base(path)))
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	return ents, nil
}

// memEntry is a regular file's directory entry.
type memEntry string

func (e memEntry) Name() string             { return string(e) }
func (memEntry) IsDir() bool                { return false }
func (memEntry) Type() os.FileMode          { return 0 }
func (memEntry) Info() (os.FileInfo, error) { return nil, errors.ErrUnsupported }

func (fs *memFS) rename(from, to string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("rename", from); err != nil {
		return err
	}
	f, ok := fs.live[from]
	if !ok {
		return notExist("rename", from)
	}
	delete(fs.live, from)
	fs.live[to] = f
	f.name = to
	return nil
}

func (fs *memFS) remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("remove", path); err != nil {
		return err
	}
	if _, ok := fs.live[path]; !ok {
		return notExist("remove", path)
	}
	delete(fs.live, path)
	return nil
}

// truncate is osFS.truncate's cut and fsync in one call.
func (fs *memFS) truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("truncate", path); err != nil {
		return err
	}
	f, ok := fs.live[path]
	if !ok {
		return notExist("truncate", path)
	}
	f.cut(size)
	f.commit()
	return nil
}

func (fs *memFS) mkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.step("mkdir", dir)
}

func (fs *memFS) syncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step("syncdir", dir); err != nil {
		return err
	}
	for path := range fs.durable {
		if filepath.Dir(path) == dir {
			delete(fs.durable, path)
		}
	}
	for path, f := range fs.live {
		if filepath.Dir(path) == dir {
			fs.durable[path] = f
		}
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := len(p), f.fs.step("write", f.name)
	if err == errCrashed {
		return 0, err
	}
	if err != nil {
		n = len(p) / 2 // a short write
	}
	f.data = append(f.data, p[:n]...)
	f.fs.last = f
	return n, err
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step("sync", f.name); err != nil {
		if err == errInjected && len(f.data) > len(f.synced) {
			f.lost = append(f.lost, [2]int{len(f.synced), len(f.data)})
		}
		return err
	}
	f.commit()
	if strings.HasPrefix(filepath.Base(f.name), segPrefix) {
		f.fs.logSyncs++
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step("truncate", f.name); err != nil {
		return err
	}
	f.cut(size)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.step("close", f.name)
}

func (f *memFile) cut(size int64) {
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
}

// commit puts the written bytes on the disk, except those a failed
// fsync dropped.
func (f *memFile) commit() {
	f.synced = f.dropLost(append(f.synced[:0], f.data...))
}

// dropLost zeroes the bytes of b that a failed fsync dropped.
func (f *memFile) dropLost(b []byte) []byte {
	for _, r := range f.lost {
		for i := r[0]; i < r[1] && i < len(b); i++ {
			b[i] = 0
		}
	}
	return b
}

// image returns a fresh disk holding what a power cut now leaves: the
// durable namespace, each file at its synced bytes and, when torn, half
// of the unsynced tail of the file written last.
func (fs *memFS) image(torn bool) *memFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.copyOf(fs.durable, func(f *memFile) []byte {
		data := append([]byte(nil), f.synced...)
		if tail := len(f.data) - len(f.synced); torn && f == fs.last && tail > 0 {
			data = append(data, f.data[len(f.synced):len(f.synced)+tail/2]...)
		}
		return data
	})
}

// asWritten returns a fresh disk holding what the next process reads
// when no crash came: the live namespace, each file as written, but for
// the bytes a failed fsync dropped.
func (fs *memFS) asWritten() *memFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.copyOf(fs.live, func(f *memFile) []byte {
		return f.dropLost(append([]byte(nil), f.data...))
	})
}

func (fs *memFS) copyOf(files map[string]*memFile, contents func(*memFile) []byte) *memFS {
	img := newMemFS()
	for path, f := range files {
		nf := &memFile{fs: img, name: path, data: contents(f)}
		nf.commit()
		img.live[path], img.durable[path] = nf, nf
	}
	return img
}
