package durable

import (
	"fmt"
	"os"
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
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
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

// syncDir fsyncs a directory so renames and creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// walLog is the append-only delta log: an open segment file plus the
// rotation and sync machinery around it. It implements catalog.Observer,
// so attaching it to a store routes every committed mutation here; the
// observer fires inside the store's write critical section, so the log
// order is the commit order, and the log's own mutex guards the segment
// against the manager's rotation and sync.
//
// Observer methods cannot return errors, so append failures (disk full,
// I/O error) are counted and latched instead: the in-memory store stays
// correct, Stats surfaces the failure, and the manager keeps trying so a
// transient error does not permanently stop the log.
type walLog struct {
	dir  string
	opts Options
	kp   *killpoint

	mu       sync.Mutex
	f        *os.File
	seq      uint64 // active segment
	segBytes int64

	totalRecords uint64 // appended since Open
	totalBytes   uint64
	baseRecords  uint64 // totals already covered by a snapshot
	baseBytes    uint64

	errCount uint64
	firstErr error
}

// openLog creates the active segment file (always a fresh one — boots
// and rotations never append to an existing segment).
func openLog(dir string, seq uint64, opts Options, kp *killpoint) (*walLog, error) {
	l := &walLog{dir: dir, opts: opts, kp: kp, seq: seq}
	if err := l.openSegment(seq); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *walLog) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.seq = seq
	l.segBytes = 0
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
	buf := frameRecord(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		l.fail(fmt.Errorf("durable: append to closed log"))
		return
	}
	if l.segBytes > 0 && l.segBytes+int64(len(buf)) > l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			return
		}
	}
	// Crash injection: a torn tail is the first half of the framed
	// record reaching the disk before the power cut.
	if l.kp.hit("append-torn") {
		_, _ = l.f.Write(buf[:len(buf)/2])
		_ = l.f.Sync()
		die()
	}
	if _, err := l.f.Write(buf); err != nil {
		l.fail(err)
		return
	}
	if l.opts.Fsync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.fail(err)
			return
		}
	}
	l.segBytes += int64(len(buf))
	l.totalRecords++
	l.totalBytes += uint64(len(buf))
	if l.kp.hit("append") {
		// The record above is fully durable; the crash hits after the
		// commit, so recovery must reproduce it.
		_ = l.f.Sync()
		die()
	}
}

func (l *walLog) fail(err error) {
	l.errCount++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// recordError latches an error from outside the append path (flush and
// compaction failures), where the log lock is not already held.
func (l *walLog) recordError(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(err)
}

// rotateLocked seals the active segment and opens the next one.
func (l *walLog) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
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
	if l.f == nil {
		return 0, 0, 0, fmt.Errorf("durable: rotate on closed log")
	}
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

// sync flushes the active segment to disk — the SyncInterval flush path.
func (l *walLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// close syncs and closes the active segment; later appends fail.
func (l *walLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
