package durable

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"prodsynth/internal/catalog"
)

// The crash tests run a workload over memFS, cut the power at a chosen
// seam call, and recover what the model disk kept. Records are numbered
// in workload order: the two test categories first, then the products.

const (
	crashDir     = "data"
	crashRecords = 2 + 40
	compactAfter = 12 // records: the compaction follows the 10th product
)

func frameRecord(payload []byte) []byte { return appendFrame(nil, payload) }

// appendRecord commits the workload's j-th record to st.
func appendRecord(t *testing.T, st *catalog.Store, j int) {
	t.Helper()
	var err error
	if j < 2 {
		err = st.AddCategory(testCategories()[j])
	} else {
		_, err = st.AddProductOutcome(testProduct(j - 2))
	}
	if err != nil {
		t.Fatalf("record %d: %v", j, err)
	}
}

// recordReference holds the EncodeStore image of an uninterrupted store
// after its first k records, for every k a crash test can reach.
var recordReference [crashRecords + 6][]byte

func referenceRecords(t *testing.T, k int) []byte {
	t.Helper()
	if recordReference[k] == nil {
		st := catalog.NewStore()
		for j := 0; j < k; j++ {
			appendRecord(t, st, j)
		}
		recordReference[k] = storeBytes(t, st)
	}
	return recordReference[k]
}

// crashWorkload appends the workload's records to a store on fs, with
// 512-byte segments and one compaction, under policy, and returns how
// many records were durably acknowledged when the crash came: under
// SyncAlways, every record whose append returned first; otherwise every
// record appended before the last log fsync that succeeded. Under
// SyncInterval an explicit Sync every fifth record stands in for Run's
// ticker.
func crashWorkload(t *testing.T, fs *memFS, policy FsyncPolicy) (acked int) {
	t.Helper()
	m, err := open(fs, crashDir, Options{Fsync: policy, MaxSegmentBytes: 512})
	if err != nil {
		return 0
	}
	syncsAt := make([]int, crashRecords)
	for j := 0; j < crashRecords; j++ {
		appendRecord(t, m.Store(), j)
		syncsAt[j] = fs.syncCount()
		if policy == SyncAlways && !fs.isCrashed() {
			acked = j + 1
		}
		if j+1 == compactAfter {
			_ = m.Compact()
		}
		if policy == SyncInterval && j%5 == 4 {
			_ = m.Sync()
		}
	}
	_ = m.Close()
	if policy != SyncAlways {
		for acked < crashRecords && syncsAt[acked] < fs.syncCount() {
			acked++
		}
	}
	return acked
}

// recoverCrash reopens the disk a crash left and checks it: every
// acknowledged record is back, the store is byte-identical to an
// uninterrupted one of the same length, and after 5 more appends a
// second recovery still is.
func recoverCrash(t *testing.T, disk *memFS, acked int) {
	t.Helper()
	m, err := open(disk, crashDir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	st := m.Store()
	n := st.NumCategories() + st.NumProducts()
	if n < acked {
		t.Fatalf("recovered %d records, %d were acknowledged", n, acked)
	}
	if !bytes.Equal(storeBytes(t, st), referenceRecords(t, n)) {
		t.Fatalf("recovered store differs from uninterrupted reference at %d records", n)
	}
	for j := n; j < n+5; j++ {
		appendRecord(t, st, j)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m2, err := open(disk.image(false), crashDir, Options{})
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer m2.Close()
	if !bytes.Equal(storeBytes(t, m2.Store()), referenceRecords(t, n+5)) {
		t.Fatal("store diverged after post-recovery appends and a second recovery")
	}
}

// crashCell runs the workload with the power cut at seam call crashAt
// and recovers the disk it left.
func crashCell(t *testing.T, policy FsyncPolicy, crashAt int, torn bool) {
	fs := newMemFS()
	fs.crashAt = crashAt
	acked := crashWorkload(t, fs, policy)
	recoverCrash(t, fs.image(torn), acked)
}

// nthOp is the index of the n-th (1-based) seam call of kind on a file
// whose name starts with prefix.
func nthOp(t *testing.T, ops []memOp, kind, prefix string, n int) int {
	t.Helper()
	for i, op := range ops {
		if op.kind == kind && strings.HasPrefix(op.name, prefix) {
			if n--; n == 0 {
				return i
			}
		}
	}
	t.Fatalf("no %d-th %s of %s*", n, kind, prefix)
	return -1
}

// TestKillAndRecover cuts the power at every seam call of the workload,
// under each FsyncPolicy, once keeping only synced bytes and once with a
// torn prefix of the last file's unsynced tail. A failing cell is named
// policy/op-index/op-kind/torn. The named cases are the crash sites the
// suite pinned before it swept: after an append's fsync, a torn append,
// and the two compaction steps either side of the manifest.
func TestKillAndRecover(t *testing.T) {
	start := time.Now()
	for k := range recordReference {
		referenceRecords(t, k) // filled before the cells run in parallel
	}
	cells := 0
	for _, policy := range []FsyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		ref := newMemFS()
		crashWorkload(t, ref, policy)
		ops := ref.ops
		if policy == SyncAlways {
			named := []struct {
				name    string
				crashAt int
				torn    bool
			}{
				{"append-early", nthOp(t, ops, "write", segPrefix, 5) + 2, false},
				{"append-after-compaction", nthOp(t, ops, "write", segPrefix, 27) + 2, false},
				{"torn-append-early", nthOp(t, ops, "write", segPrefix, 6) + 1, true},
				{"torn-append-after-compaction", nthOp(t, ops, "write", segPrefix, 18) + 1, true},
				{"mid-compaction-before-manifest", nthOp(t, ops, "create", manifestName, 1), false},
				{"mid-compaction-after-manifest", nthOp(t, ops, "rename", manifestName, 1) + 2, false},
			}
			for _, tc := range named {
				t.Run(tc.name, func(t *testing.T) { crashCell(t, policy, tc.crashAt, tc.torn) })
			}
		}
		t.Run(policy.String(), func(t *testing.T) {
			for k := 0; k <= len(ops); k++ {
				kind := "end"
				if k < len(ops) {
					kind = ops[k].kind
				}
				for _, torn := range []bool{false, true} {
					cells++
					name := fmt.Sprintf("%04d/%s/synced", k, kind)
					if torn {
						name = fmt.Sprintf("%04d/%s/torn", k, kind)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						crashCell(t, policy, k, torn)
					})
				}
			}
		})
	}
	t.Logf("%d crash cells in %v", cells, time.Since(start).Round(time.Millisecond))
}

// openFaulty opens a SyncAlways store on a memFS whose fail picks the
// n-th seam call of kind on a log segment.
func openFaulty(t *testing.T, kind string, n int) (*memFS, *Manager) {
	t.Helper()
	fs := newMemFS()
	fs.fail = func(op memOp) bool {
		if op.kind == kind && strings.HasPrefix(op.name, segPrefix) {
			n--
			return n == 0
		}
		return false
	}
	m, err := open(fs, crashDir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return fs, m
}

// recoverExactly reopens disk and requires the uninterrupted store of
// the first n records.
func recoverExactly(t *testing.T, disk *memFS, n int) {
	t.Helper()
	m, err := open(disk, crashDir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m.Close()
	if !bytes.Equal(storeBytes(t, m.Store()), referenceRecords(t, n)) {
		t.Fatalf("recovered store differs from the uninterrupted one of %d records", n)
	}
}

// recoverAll recovers the first n records both from the disk a crash
// would leave and from the disk as written.
func recoverAll(t *testing.T, fs *memFS, n int) {
	t.Helper()
	recoverExactly(t, fs.image(false), n)
	recoverExactly(t, fs.asWritten(), n)
}

// A short write is cut back to the last whole record, and the record it
// failed to write goes out with the next append: the 9th product's
// write stops halfway, 4 more products follow, and all 13 recover.
func TestShortWriteIsRewritten(t *testing.T) {
	fs, m := openFaulty(t, "write", 2+9)
	for j := 0; j < 2+13; j++ {
		appendRecord(t, m.Store(), j)
	}
	if s := m.Stats(); s.AppendErrors != 1 {
		t.Fatalf("AppendErrors = %d, want 1", s.AppendErrors)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recoverAll(t, fs, 2+13)
}

// A failed fsync breaks the segment: the next append moves to a fresh
// one that starts with the unsynced record, and compaction, which
// rotates, still succeeds.
func TestFailedFsyncMovesToFreshSegment(t *testing.T) {
	fs, m := openFaulty(t, "sync", 2+9)
	for j := 0; j < 2+13; j++ {
		appendRecord(t, m.Store(), j)
	}
	if s := m.Stats(); s.AppendErrors != 1 {
		t.Fatalf("AppendErrors = %d, want 1", s.AppendErrors)
	}
	recoverAll(t, fs, 2+13)
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact after a failed fsync: %v", err)
	}
	for j := 2 + 13; j < 2+16; j++ {
		appendRecord(t, m.Store(), j)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recoverAll(t, fs, 2+16)
}

// A boot that commits nothing leaves no segment behind for every later
// recovery to read: five idle boots of an empty directory leave one
// segment file, as written and as a crash would leave it. After a boot
// that commits, five idle ones leave its segment and one empty one, and
// its records recover.
func TestIdleBootsLeaveOneSegment(t *testing.T) {
	fs := newMemFS()
	boots := func(n, records int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m, err := open(fs, crashDir, Options{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for j := 0; j < records; j++ {
				appendRecord(t, m.Store(), j)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
	segments := func(want int) {
		t.Helper()
		for _, disk := range []*memFS{fs, fs.image(false)} {
			if seqs, err := listSegments(disk, crashDir); err != nil || len(seqs) != want {
				t.Fatalf("segments %v (%v), want %d", seqs, err, want)
			}
		}
	}
	boots(5, 0)
	segments(1)
	boots(1, 12)
	boots(5, 0)
	segments(2)
	recoverExactly(t, fs, 12)
}

// Under SyncInterval a crash keeps what the last Sync covered and loses
// only later appends; a torn unsynced tail is cut off at reopen, and the
// cut holds across the next crash.
func TestIntervalCrashKeepsSyncedAppends(t *testing.T) {
	fs := newMemFS()
	m, err := open(fs, crashDir, Options{Fsync: SyncInterval})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for j := 0; j < 12; j++ {
		appendRecord(t, m.Store(), j)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	for j := 12; j < 17; j++ {
		appendRecord(t, m.Store(), j)
	}

	m1, err := open(fs.image(false), crashDir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !bytes.Equal(storeBytes(t, m1.Store()), referenceRecords(t, 12)) {
		t.Fatal("a crash keeping only synced bytes did not recover exactly the synced records")
	}
	m1.Close()

	disk := fs.image(true)
	m2, err := open(disk, crashDir, Options{})
	if err != nil {
		t.Fatalf("recovery over a torn tail: %v", err)
	}
	n := m2.Store().NumCategories() + m2.Store().NumProducts()
	if n < 12 || !bytes.Equal(storeBytes(t, m2.Store()), referenceRecords(t, n)) {
		t.Fatalf("torn recovery: %d records, or not the uninterrupted store of that length", n)
	}
	if m2.Stats().Recovery.TruncatedBytes == 0 {
		t.Fatal("the torn unsynced tail was not cut off")
	}
	appendRecord(t, m2.Store(), n)
	m2.Close()
	recoverAll(t, disk, n+1)
}

// Run fsyncs the log on its ticks under SyncInterval only: SyncAlways
// has synced every append, and SyncNone never syncs. Under SyncInterval
// appends race the ticker, and a crash after Close loses none of them.
func TestRunSyncsOnlyUnderInterval(t *testing.T) {
	for _, tc := range []struct {
		policy FsyncPolicy
		wait   time.Duration // several ticks
	}{
		{SyncAlways, 2200 * time.Millisecond},
		{SyncNone, 2200 * time.Millisecond},
		{SyncInterval, 4*DefaultFsyncInterval + DefaultFsyncInterval/2},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			t.Parallel()
			fs := newMemFS()
			m, err := open(fs, crashDir, Options{Fsync: tc.policy, CompactRecords: 1000})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			n := 5
			for j := 0; j < n; j++ {
				appendRecord(t, m.Store(), j)
			}
			before := fs.syncCount()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.Run(ctx)
			}()
			for deadline := time.Now().Add(tc.wait); time.Now().Before(deadline); {
				if tc.policy == SyncInterval && n < crashRecords {
					appendRecord(t, m.Store(), n)
					n++
				}
				time.Sleep(10 * time.Millisecond)
			}
			cancel()
			<-done
			syncs := fs.syncCount() - before
			if tc.policy == SyncInterval {
				if syncs < 2 {
					t.Fatalf("%d fsyncs in %v of SyncInterval ticks, want several", syncs, tc.wait)
				}
			} else if syncs != 0 {
				t.Fatalf("%d fsyncs in %v of Run under %v, want none", syncs, tc.wait, tc.policy)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			recoverExactly(t, fs.image(false), n)
		})
	}
}
