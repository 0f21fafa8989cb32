package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"prodsynth/internal/catalog"
	"prodsynth/internal/snapfmt"
)

// Manager ties one catalog store to one data directory: it recovers the
// store at Open (snapshot load + log replay), logs every later mutation
// through an attached observer, and compacts the log into a fresh
// snapshot on demand or on a schedule (Run).
type Manager struct {
	dir   string
	opts  Options
	store *catalog.Store
	log   *walLog

	mu          sync.Mutex // serializes Compact, Close
	epoch       uint64
	shards      uint32 // snapshot files of the live epoch (manifest Shards)
	firstSeq    uint64
	compactions uint64
	closed      bool
	recovery    RecoveryStats
}

// Open recovers (or initializes) a durable catalog in dir: load the
// manifest's snapshot files (one since compaction writes a single file;
// several in a directory written while the catalog was split into
// shards), merge them into one store, replay the log
// segments the snapshots do not cover, truncate a torn tail if the last
// crash left one, then open a fresh active segment and attach the logging
// observer. After Open returns, every mutation of Store() is logged.
func Open(dir string, opts Options) (*Manager, error) {
	return open(osFS{}, dir, opts)
}

// open is Open over any fileSys.
func open(fs fileSys, dir string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if err := fs.mkdirAll(dir); err != nil {
		return nil, err
	}
	start := time.Now()

	man, haveMan, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	if err := removeOrphans(fs, dir, man); err != nil {
		return nil, err
	}

	var store *catalog.Store
	var rec RecoveryStats
	if haveMan {
		snaps := make([]catalog.Snapshot, man.Shards)
		for i := range snaps {
			snaps[i], err = readSnapshotFile(fs, filepath.Join(dir, snapName(i, man.Epoch)))
			if err != nil {
				return nil, fmt.Errorf("durable: epoch %d shard %d: %w", man.Epoch, i, err)
			}
		}
		merged := catalog.MergeSnapshots(snaps)
		store, err = catalog.FromSnapshot(merged)
		if err != nil {
			return nil, fmt.Errorf("durable: epoch %d: %w", man.Epoch, err)
		}
		rec.SnapshotEpoch = man.Epoch
		rec.SnapshotProducts = store.NumProducts()
	} else {
		store = catalog.NewStore()
	}

	seqs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	replay, err := replaySegments(fs, store, dir, seqs)
	if err != nil {
		return nil, err
	}
	rec.ReplayedRecords = replay.records
	rec.TruncatedBytes = replay.truncated
	rec.Segments = replay.segments

	// A boot always starts a fresh segment — never appends to one an
	// earlier process wrote.
	nextSeq := man.FirstSeq
	if nextSeq == 0 {
		nextSeq = 1
	}
	if n := len(seqs); n > 0 && seqs[n-1] >= nextSeq {
		nextSeq = seqs[n-1] + 1
	}
	log, err := openLog(fs, dir, nextSeq, opts)
	if err != nil {
		return nil, err
	}
	store.SetObserver(log)
	rec.Duration = time.Since(start)

	return &Manager{
		dir:      dir,
		opts:     opts,
		store:    store,
		log:      log,
		epoch:    man.Epoch,
		shards:   man.Shards,
		firstSeq: man.FirstSeq,
		recovery: rec,
	}, nil
}

// removeOrphans deletes files a crash mid-compaction can leave behind:
// temp files never renamed, snapshot files of an epoch the manifest does
// not name (either the next epoch that never published, or the previous
// one that was not yet deleted), and log segments below the manifest's
// first uncovered sequence.
func removeOrphans(fs fileSys, dir string, man manifest) error {
	ents, err := fs.readDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		drop := false
		switch {
		case strings.HasSuffix(name, ".tmp"):
			drop = true
		case strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".psct"):
			var shard int
			var epoch uint64
			if _, err := fmt.Sscanf(name, "shard-%d-%d.psct", &shard, &epoch); err == nil {
				drop = epoch != man.Epoch
			}
		default:
			if seq, ok := parseSegName(name); ok {
				drop = seq < man.FirstSeq
			}
		}
		if drop {
			if err := fs.remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSnapshotFile loads one snapshot file.
func readSnapshotFile(fs fileSys, path string) (catalog.Snapshot, error) {
	data, err := fs.readFile(path)
	if err != nil {
		return catalog.Snapshot{}, err
	}
	tr := snapfmt.TrackOffset(bytes.NewReader(data))
	snap, err := catalog.DecodeSnapshot(tr)
	if err != nil {
		return catalog.Snapshot{}, err
	}
	if err := snapfmt.ExpectEOF(tr, catalog.ErrBadSnapshot); err != nil {
		return catalog.Snapshot{}, err
	}
	return snap, nil
}

// Store returns the recovered, observer-attached catalog store.
func (m *Manager) Store() *catalog.Store { return m.store }

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

var errClosed = errors.New("durable: manager closed")

// Compact folds the log into a new snapshot epoch: rotate the log,
// capture the store in one snapshot file (temp + rename, fsynced),
// publish a manifest naming the new epoch, then delete the files the new
// epoch obsoletes — the previous epoch's snapshot files, as many as its
// manifest counted. Appends proceed concurrently throughout — only the rotation
// itself takes the log lock. Crash-safe at every step: until the
// manifest rename commits, recovery uses the old epoch and replays the
// old segments; after it, the stale files are orphans the next Open
// removes.
func (m *Manager) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	retainSeq, markRecords, markBytes, err := m.log.rotate()
	if err != nil {
		return err
	}
	epoch := m.epoch + 1
	snap := m.store.Snapshot()
	err = writeFileAtomic(m.log.fs, m.dir, snapName(0, epoch), func(w io.Writer) error {
		return catalog.EncodeSnapshot(w, snap)
	})
	if err != nil {
		return err
	}
	if err := writeManifest(m.log.fs, m.dir, manifest{Epoch: epoch, Shards: 1, FirstSeq: retainSeq}); err != nil {
		return err
	}
	// The new epoch is durable; everything below is garbage collection,
	// and a crash here just leaves orphans for the next Open.
	for i := 0; i < int(m.shards); i++ {
		_ = m.log.fs.remove(filepath.Join(m.dir, snapName(i, m.epoch)))
	}
	seqs, err := listSegments(m.log.fs, m.dir)
	if err == nil {
		for _, seq := range seqs {
			if seq < retainSeq {
				_ = m.log.fs.remove(filepath.Join(m.dir, segName(seq)))
			}
		}
	}
	m.epoch = epoch
	m.shards = 1
	m.firstSeq = retainSeq
	m.compactions++
	m.log.setBaseline(markRecords, markBytes)
	return nil
}

// writeFileAtomic writes dir/name through encode without ever exposing
// a partial file: encode into name.tmp, fsync it, close it, rename it
// over name, and fsync the directory so the rename itself is durable.
func writeFileAtomic(fs fileSys, dir, name string, encode func(io.Writer) error) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := fs.create(tmp, false)
	if err != nil {
		return err
	}
	err = encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := fs.rename(tmp, final); err != nil {
		return err
	}
	return fs.syncDir(dir)
}

// ImportSnapshot seeds an EMPTY durable store from an external catalog
// snapshot (typically a bundle's catalog half) and immediately compacts,
// so the imported state is on disk as the first epoch rather than
// re-imported on every boot. The records are applied through the replay
// path — validated, but not logged record-by-record.
func (m *Manager) ImportSnapshot(snap catalog.Snapshot) error {
	if m.store.NumCategories() != 0 || m.store.NumProducts() != 0 {
		return errors.New("durable: ImportSnapshot into non-empty store")
	}
	for _, rec := range snapshotRecords(snap) {
		if err := m.store.Replay(rec); err != nil {
			return fmt.Errorf("durable: import: %w", err)
		}
	}
	return m.Compact()
}

// Run services the manager's timers until ctx is done. One ticker, at
// DefaultFsyncInterval under SyncInterval and once a second otherwise,
// fsyncs the log under SyncInterval only (SyncAlways has synced every
// append; SyncNone syncs on no timer) and compacts once the log depth
// reaches CompactRecords; a second ticker compacts every
// SnapshotInterval. Failures are counted in the log's errors and retried
// on the next tick.
func (m *Manager) Run(ctx context.Context) {
	every := time.Second
	if m.opts.Fsync == SyncInterval {
		every = DefaultFsyncInterval
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var snapC <-chan time.Time
	if m.opts.SnapshotInterval > 0 {
		t := time.NewTicker(m.opts.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if m.opts.Fsync == SyncInterval {
				_ = m.log.sync() // counted in the log's errors
			}
			if depth, _ := m.log.depth(); m.opts.CompactRecords > 0 && depth >= uint64(m.opts.CompactRecords) {
				m.runCompact()
			}
		case <-snapC:
			m.runCompact()
		}
	}
}

// runCompact is Compact for Run: a failure is counted in the log's
// errors, and the next tick retries.
func (m *Manager) runCompact() {
	if err := m.Compact(); err != nil && !errors.Is(err, errClosed) {
		m.log.recordError(err)
	}
}

// Sync writes any pending frames and fsyncs the active log segment — the
// explicit counterpart of the SyncInterval ticker.
func (m *Manager) Sync() error { return m.log.sync() }

// Stats reports the durability layer's current state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Recovery:    m.recovery,
		Epoch:       m.epoch,
		Compactions: m.compactions,
	}
	m.mu.Unlock()
	s.LogDepthRecords, s.LogDepthBytes = m.log.depth()
	var ferr error
	s.AppendErrors, ferr = m.log.errors()
	if ferr != nil {
		s.LastAppendError = ferr.Error()
	}
	return s
}

// Close detaches nothing (the store stays usable in memory, unlogged)
// but syncs and closes the log. Call after the store's writers have
// stopped.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.log.close()
}
