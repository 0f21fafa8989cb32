package durable

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prodsynth/internal/catalog"
)

// segPrefix/segSuffix frame the log segment file names: wal-<seq>.psdl,
// zero-padded so lexical order is replay order.
const (
	segPrefix = "wal-"
	segSuffix = ".psdl"
)

func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the log segment sequence numbers present in dir,
// ascending.
func listSegments(fs fileSys, dir string) ([]uint64, error) {
	ents, err := fs.readDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// walLog is the append-only delta log: an open segment file plus the
// rotation and sync machinery around it. It implements catalog.Observer,
// so attaching it to a store routes every committed mutation here; the
// observer fires inside the store's write critical section, so the log
// order is the commit order, and the log's own mutex guards the segment
// against the manager's rotation and sync.
//
// Observer methods cannot return errors, so a failed write or fsync is
// counted and latched, and the frames it did not make durable stay
// pending; the next append, sync or close writes them again, in order,
// so the log never skips a record the store committed.
type walLog struct {
	dir  string
	fs   fileSys
	opts Options

	mu     sync.Mutex
	f      file // nil between a failed rotation and its retry
	seq    uint64
	closed bool
	// synced is the active segment's length at its last fsync. pending
	// holds every frame committed since; its first written bytes follow
	// synced in the segment. broken marks a segment whose fsync failed.
	synced  int64
	pending []byte
	written int
	broken  bool

	totalRecords uint64 // appended since Open
	totalBytes   uint64
	baseRecords  uint64 // totals already covered by a snapshot
	baseBytes    uint64

	errCount uint64
	firstErr error
}

// openLog creates the active segment file (always a fresh one — boots
// and rotations never append to an existing segment).
func openLog(fs fileSys, dir string, seq uint64, opts Options) (*walLog, error) {
	l := &walLog{dir: dir, fs: fs, opts: opts}
	if opts.Fsync == SyncNone { // frames stay pending until a segment is sealed
		l.pending = make([]byte, 0, opts.MaxSegmentBytes)
	}
	return l, l.openSegment(seq)
}

// openSegment makes seq the active segment. A failure still spends seq,
// so a retry never collides with a file the failed attempt left.
func (l *walLog) openSegment(seq uint64) error {
	l.seq = seq
	f, err := l.fs.create(filepath.Join(l.dir, segName(seq)), true)
	if err != nil {
		return err
	}
	if err := l.fs.syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.synced, l.written, l.broken = f, 0, 0, false
	return nil
}

// ObserveCategory implements catalog.Observer.
func (l *walLog) ObserveCategory(c catalog.Category) {
	l.append(encodeCategory(c))
}

// ObserveProduct implements catalog.Observer.
func (l *walLog) ObserveProduct(version uint64, ownsKey bool, p catalog.Product) {
	l.append(encodeProduct(version, ownsKey, p))
}

func (l *walLog) append(payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		l.fail(fmt.Errorf("durable: append to closed log"))
		return
	}
	n := len(l.pending)
	l.pending = appendFrame(l.pending, payload)
	l.totalRecords++
	l.totalBytes += uint64(len(l.pending) - n)
	if l.writeLocked() == nil && l.opts.Fsync == SyncAlways {
		l.syncLocked()
	}
}

// writeLocked writes the pending frames the active segment lacks,
// moving to a fresh segment first when the active one is broken, gone,
// or full. A short write is cut back to the last whole frame.
func (l *walLog) writeLocked() error {
	if l.written == len(l.pending) && !l.broken {
		return nil
	}
	size := l.synced + int64(l.written)
	if l.f == nil || l.broken || (size > 0 && l.synced+int64(len(l.pending)) > l.opts.MaxSegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			return err
		}
	}
	n, err := l.f.Write(l.pending[l.written:])
	if err == nil {
		l.written = len(l.pending)
		return nil
	}
	l.fail(err)
	if n > 0 && l.f.Truncate(l.synced+int64(l.written)) != nil {
		l.broken = true
	}
	return err
}

// syncLocked fsyncs the frames written since the last fsync. A failure
// breaks the segment: a later fsync of the same file can report success
// for pages whose write-back failed.
func (l *walLog) syncLocked() error {
	if l.f == nil || l.broken || l.written == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.broken = true
		l.fail(err)
		return err
	}
	l.synced += int64(l.written)
	l.pending = append(l.pending[:0], l.pending[l.written:]...)
	l.written = 0
	return nil
}

func (l *walLog) fail(err error) {
	l.errCount++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// recordError latches an error from outside the append path (compaction
// failures), where the log lock is not already held.
func (l *walLog) recordError(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(err)
}

// rotateLocked seals the active segment and opens the next one. A
// healthy segment is fsynced; a broken one is cut back to its last
// synced frame, and all of pending goes to the new segment.
func (l *walLog) rotateLocked() error {
	if l.f != nil {
		if l.syncLocked(); l.broken {
			_ = l.f.Truncate(l.synced) // best effort: pending holds the cut frames
		}
		_ = l.f.Close() // the frames it holds are synced, or still pending
		l.f = nil
	}
	return l.openSegment(l.seq + 1)
}

// rotate seals the active segment and returns the new active sequence
// number plus the append totals at the instant of rotation. Compaction
// calls it first: a snapshot taken after rotate covers every record in
// segments before the returned sequence, so those segments (and only
// those) become deletable once the new manifest lands.
func (l *walLog) rotate() (retainSeq, markRecords, markBytes uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rotateLocked(); err != nil {
		return 0, 0, 0, err
	}
	return l.seq, l.totalRecords, l.totalBytes, nil
}

// setBaseline marks all appends up to the given totals as covered by a
// snapshot; the depth counters restart from there.
func (l *walLog) setBaseline(records, bytes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.baseRecords = records
	l.baseBytes = bytes
}

// depth reports the records and bytes a crash right now would replay.
func (l *walLog) depth() (records, bytes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalRecords - l.baseRecords, l.totalBytes - l.baseBytes
}

func (l *walLog) errors() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errCount, l.firstErr
}

// sync writes the pending frames and fsyncs them — the SyncInterval
// flush path. A failure is counted in the log's errors.
func (l *walLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *walLog) flushLocked() error {
	if l.closed {
		return nil
	}
	if err := l.writeLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// close syncs and closes the active segment; later appends fail.
func (l *walLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	l.f, l.closed = nil, true
	return err
}
