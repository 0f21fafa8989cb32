package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prodsynth/internal/catalog"
)

// testCategories returns the fixed taxonomy the tests append into.
func testCategories() []catalog.Category {
	return []catalog.Category{
		{
			ID: "c-tv", Name: "Televisions", TopLevel: "Electronics",
			Schema: catalog.Schema{Attributes: []catalog.Attribute{
				{Name: "Brand", Kind: catalog.KindCategorical},
				{Name: "Screen Size", Kind: catalog.KindNumeric, Unit: "in"},
				{Name: catalog.AttrUPC, Kind: catalog.KindIdentifier},
			}},
		},
		{
			ID: "c-hdd", Name: "Hard Drives", TopLevel: "Electronics",
			Schema: catalog.Schema{Attributes: []catalog.Attribute{
				{Name: "Brand", Kind: catalog.KindCategorical},
				{Name: "Capacity", Kind: catalog.KindNumeric, Unit: "GB"},
				{Name: catalog.AttrMPN, Kind: catalog.KindIdentifier},
			}},
		},
	}
}

// testProduct builds the i-th deterministic product; even i land in
// c-tv, odd in c-hdd. Every fourth product reuses an earlier product's
// key so shadowed (non-owning) keys are part of every test corpus.
func testProduct(i int) catalog.Product {
	if i%2 == 0 {
		key := fmt.Sprintf("0%08d", i)
		if i%4 == 2 && i > 2 {
			key = fmt.Sprintf("0%08d", i-4)
		}
		return catalog.Product{
			ID: fmt.Sprintf("tv-%04d", i), CategoryID: "c-tv",
			Spec: catalog.Spec{
				{Name: "Brand", Value: fmt.Sprintf("Brand%d", i%5)},
				{Name: "Screen Size", Value: fmt.Sprintf("%d in", 30+i%30)},
				{Name: catalog.AttrUPC, Value: key},
			},
		}
	}
	return catalog.Product{
		ID: fmt.Sprintf("hdd-%04d", i), CategoryID: "c-hdd",
		Spec: catalog.Spec{
			{Name: "Brand", Value: fmt.Sprintf("Maker%d", i%3)},
			{Name: "Capacity", Value: fmt.Sprintf("%d GB", 250*(1+i%8))},
			{Name: catalog.AttrMPN, Value: fmt.Sprintf("MPN-%05d", i)},
		},
	}
}

// seedStore appends the categories and n products to a store.
func seedStore(t *testing.T, st *catalog.Store, n int) {
	t.Helper()
	for _, c := range testCategories() {
		if err := st.AddCategory(c); err != nil && !errors.Is(err, catalog.ErrDuplicateCategory) {
			t.Fatalf("AddCategory: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := st.AddProductOutcome(testProduct(i)); err != nil {
			t.Fatalf("AddProduct %d: %v", i, err)
		}
	}
}

// referenceBytes is the EncodeStore image of a fresh in-memory store
// after n appends — the ground truth every recovery must reproduce.
func referenceBytes(t *testing.T, n int) []byte {
	t.Helper()
	st := catalog.NewStore()
	seedStore(t, st, n)
	return storeBytes(t, st)
}

func storeBytes(t *testing.T, st *catalog.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := catalog.EncodeStore(&buf, st); err != nil {
		t.Fatalf("EncodeStore: %v", err)
	}
	return buf.Bytes()
}

func TestOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 25)
	if s := m.Stats(); s.LogDepthRecords != 27 { // 2 categories + 25 products
		t.Fatalf("log depth = %d, want 27", s.LogDepthRecords)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if got, want := storeBytes(t, m2.Store()), referenceBytes(t, 25); !bytes.Equal(got, want) {
		t.Fatalf("recovered store differs from reference (%d vs %d bytes)", len(got), len(want))
	}
	s := m2.Stats()
	if s.Recovery.ReplayedRecords != 27 {
		t.Errorf("ReplayedRecords = %d, want 27", s.Recovery.ReplayedRecords)
	}
	if s.Recovery.SnapshotEpoch != 0 || s.Recovery.SnapshotProducts != 0 {
		t.Errorf("unexpected snapshot recovery: %+v", s.Recovery)
	}
}

// TestRunCompactsDeepLogWithSnapshotInterval pins Run's heartbeat: a
// log past CompactRecords is compacted within a few seconds even when
// the timed compaction is an hour away.
func TestRunCompactsDeepLogWithSnapshotInterval(t *testing.T) {
	m, err := Open(t.TempDir(), Options{SnapshotInterval: time.Hour, CompactRecords: 5})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	seedStore(t, m.Store(), 20) // 22 records

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction within 5s of a log at depth %d (CompactRecords 5)", m.Stats().LogDepthRecords)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if d := m.Stats().LogDepthRecords; d != 0 {
		t.Errorf("log depth after compaction = %d, want 0", d)
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 10)
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s := m.Stats(); s.Epoch != 1 || s.Compactions != 1 || s.LogDepthRecords != 0 {
		t.Fatalf("post-compact stats: %+v", s)
	}
	// Appends after compaction land in the retained log tail.
	for i := 10; i < 20; i++ {
		if _, err := m.Store().AddProductOutcome(testProduct(i)); err != nil {
			t.Fatalf("AddProduct %d: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if got, want := storeBytes(t, m2.Store()), referenceBytes(t, 20); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs from reference after compact + tail")
	}
	s := m2.Stats()
	if s.Recovery.SnapshotEpoch != 1 {
		t.Errorf("SnapshotEpoch = %d, want 1", s.Recovery.SnapshotEpoch)
	}
	if s.Recovery.SnapshotProducts != 10 {
		t.Errorf("SnapshotProducts = %d, want 10", s.Recovery.SnapshotProducts)
	}
	if s.Recovery.ReplayedRecords != 10 {
		t.Errorf("ReplayedRecords = %d, want 10 (the tail)", s.Recovery.ReplayedRecords)
	}
}

// parent8ShardSHA256 is the EncodeStore SHA-256 of the store recorded in
// testdata/parent_8shard when that directory was written, by the store
// that still split the catalog into 8 category shards: an epoch-1
// manifest naming 8 snapshot files, plus a WAL tail with products, a
// category registered after the compaction, and keys shadowed across
// categories and across the snapshot/tail boundary.
const parent8ShardSHA256 = "3edcbf937bc1511e26457605ba6d483d37baa325eaf56adb547e46e88caeaa04"

// copyFixture copies a checked-in data directory into a fresh temp dir,
// since Open writes to the directory it recovers.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.psct"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// A directory whose epoch is split over 8 shard snapshot files still
// recovers to the same store, and its first compaction leaves exactly
// one snapshot file: the old epoch's files are collected by the count
// its own manifest recorded.
func TestEightShardDirectoryOpens(t *testing.T) {
	dir := copyFixture(t, "parent_8shard")
	if got := len(snapshotFiles(t, dir)); got != 8 {
		t.Fatalf("fixture has %d snapshot files, want 8", got)
	}
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	digest := func(st *catalog.Store) string {
		sum := sha256.Sum256(storeBytes(t, st))
		return hex.EncodeToString(sum[:])
	}
	if got := digest(m.Store()); got != parent8ShardSHA256 {
		t.Fatalf("recovered store SHA-256 = %s, want %s", got, parent8ShardSHA256)
	}
	if s := m.Stats(); s.Recovery.SnapshotEpoch != 1 || s.Recovery.ReplayedRecords == 0 {
		t.Fatalf("recovery did not use both the snapshots and the log tail: %+v", s.Recovery)
	}
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if files := snapshotFiles(t, dir); len(files) != 1 || filepath.Base(files[0]) != snapName(0, 2) {
		t.Fatalf("snapshot files after Compact = %v, want only %s", files, snapName(0, 2))
	}
	man, ok, err := readManifest(osFS{}, dir)
	if err != nil || !ok {
		t.Fatalf("readManifest: %v (found %v)", err, ok)
	}
	if man.Epoch != 2 || man.Shards != 1 {
		t.Fatalf("manifest after Compact = %+v, want epoch 2 with 1 snapshot file", man)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Compact: %v", err)
	}
	defer m2.Close()
	if got := digest(m2.Store()); got != parent8ShardSHA256 {
		t.Fatalf("store after Compact and reopen SHA-256 = %s, want %s", got, parent8ShardSHA256)
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 30)
	m.Close()
	seqs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(seqs))
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if got, want := storeBytes(t, m2.Store()), referenceBytes(t, 30); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs after multi-segment replay")
	}
	if s := m2.Stats(); s.Recovery.Segments < 3 {
		t.Errorf("Recovery.Segments = %d, want >= 3", s.Recovery.Segments)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 8)
	m.Close()

	// Tear the last segment by hand: append half of a framed record.
	seqs, _ := listSegments(osFS{}, dir)
	last := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	torn := frameRecord(encodeProduct(99, false, testProduct(99)))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer m2.Close()
	if got, want := storeBytes(t, m2.Store()), referenceBytes(t, 8); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs after torn-tail truncation")
	}
	if s := m2.Stats(); s.Recovery.TruncatedBytes != int64(len(torn)/2) {
		t.Errorf("TruncatedBytes = %d, want %d", s.Recovery.TruncatedBytes, len(torn)/2)
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 8)
	m.Close()

	// Flip one payload byte in the middle of the segment: checksum
	// fails, valid records follow, so this must NOT pass as a torn tail.
	seqs, _ := listSegments(osFS{}, dir)
	var path string
	for _, seq := range seqs {
		p := filepath.Join(dir, segName(seq))
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			path = p
			break
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a mid-log corruption")
	} else if !strings.Contains(err.Error(), "not a torn tail") {
		t.Fatalf("error does not identify the corruption: %v", err)
	}
}

func TestImportSnapshotSeedsFirstEpoch(t *testing.T) {
	src := catalog.NewStore()
	seedStore(t, src, 15)

	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.ImportSnapshot(src.Snapshot()); err != nil {
		t.Fatalf("ImportSnapshot: %v", err)
	}
	if s := m.Stats(); s.Epoch != 1 {
		t.Fatalf("import did not compact: %+v", s)
	}
	if err := m.ImportSnapshot(src.Snapshot()); err == nil {
		t.Fatal("ImportSnapshot into non-empty store did not fail")
	}
	m.Close()

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if got, want := storeBytes(t, m2.Store()), storeBytes(t, src); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs from imported snapshot")
	}
	if s := m2.Stats(); s.Recovery.SnapshotEpoch != 1 || s.Recovery.ReplayedRecords != 0 {
		t.Errorf("import recovery should be snapshot-only: %+v", s.Recovery)
	}
}

func TestCompactDeletesObsoleteFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedStore(t, m.Store(), 6)
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact 1: %v", err)
	}
	for i := 6; i < 12; i++ {
		if _, err := m.Store().AddProductOutcome(testProduct(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact 2: %v", err)
	}
	m.Close()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.Contains(name, "-1.psct") {
			t.Errorf("epoch-1 snapshot %s not deleted by compaction", name)
		}
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("temp file %s left behind", name)
		}
	}
	seqs, _ := listSegments(osFS{}, dir)
	man, ok, err := readManifest(osFS{}, dir)
	if err != nil || !ok {
		t.Fatalf("manifest: %v ok=%v", err, ok)
	}
	if man.Epoch != 2 {
		t.Errorf("manifest epoch = %d, want 2", man.Epoch)
	}
	for _, seq := range seqs {
		if seq < man.FirstSeq {
			t.Errorf("segment %d below manifest FirstSeq %d not deleted", seq, man.FirstSeq)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, c := range testCategories() {
		rec, err := decodeRecord(encodeCategory(c))
		if err != nil {
			t.Fatalf("decode category: %v", err)
		}
		if rec.Category == nil || rec.Category.ID != c.ID || len(rec.Category.Schema.Attributes) != len(c.Schema.Attributes) {
			t.Fatalf("category round-trip mismatch: %+v", rec.Category)
		}
	}
	p := testProduct(3)
	rec, err := decodeRecord(encodeProduct(7, true, p))
	if err != nil {
		t.Fatalf("decode product: %v", err)
	}
	if rec.Product == nil || rec.Product.ID != p.ID || rec.Version != 7 || !rec.OwnsKey {
		t.Fatalf("product round-trip mismatch: %+v", rec)
	}
	if _, err := decodeRecord([]byte{9, 0, 0, 0}); err == nil {
		t.Fatal("unknown record tag accepted")
	}
}
