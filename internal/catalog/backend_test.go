package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore()
	for _, c := range []Category{
		{ID: "c-drives", Name: "Hard Drives", TopLevel: "Electronics", Schema: Schema{Attributes: []Attribute{
			{Name: AttrUPC, Kind: KindIdentifier},
			{Name: "Brand", Kind: KindCategorical},
			{Name: "Capacity", Kind: KindNumeric, Unit: "GB"},
		}}},
		{ID: "c-phones", Name: "Phones", TopLevel: "Electronics", Schema: Schema{Attributes: []Attribute{
			{Name: AttrUPC, Kind: KindIdentifier},
			{Name: AttrMPN, Kind: KindIdentifier},
			{Name: "Brand", Kind: KindCategorical},
		}}},
		{ID: "c-tvs", Name: "TVs", TopLevel: "Electronics", Schema: Schema{Attributes: []Attribute{
			{Name: AttrMPN, Kind: KindIdentifier},
			{Name: "Size", Kind: KindNumeric, Unit: "in"},
		}}},
	} {
		if err := st.AddCategory(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		cat := []string{"c-drives", "c-phones", "c-tvs"}[i%3]
		keyAttr := AttrUPC
		if cat == "c-tvs" {
			keyAttr = AttrMPN
		}
		p := Product{
			ID:         fmt.Sprintf("p-%02d", i),
			CategoryID: cat,
			Spec:       Spec{{Name: keyAttr, Value: fmt.Sprintf("key-%02d", i)}},
		}
		if err := st.AddProduct(p); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// A data directory written while the store was split into category
// shards holds one snapshot per shard. Merging such parts must yield the
// exact global snapshot, byte for byte, for any number of parts.
func TestMergeSnapshotsRebuildsGlobal(t *testing.T) {
	st := testStore(t)
	var want bytes.Buffer
	if err := EncodeStore(&want, st); err != nil {
		t.Fatal(err)
	}
	whole := st.Snapshot()
	for _, n := range []int{1, 3, 8} {
		// Deal categories round-robin over n parts; each key goes with
		// the part holding its owner.
		parts := make([]Snapshot, n)
		partOf := map[string]int{}
		for i, cs := range whole.Categories {
			parts[i%n].Categories = append(parts[i%n].Categories, cs)
			for _, p := range cs.Products {
				partOf[p.ID] = i % n
			}
		}
		for _, ko := range whole.Keys {
			i := partOf[ko.ProductID]
			parts[i].Keys = append(parts[i].Keys, ko)
		}
		merged := MergeSnapshots(parts)
		var got bytes.Buffer
		if err := EncodeSnapshot(&got, merged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("parts=%d: merged snapshots differ from the global snapshot", n)
		}
		// And the merge must load: a store rebuilt from it matches too.
		st2, err := FromSnapshot(merged)
		if err != nil {
			t.Fatalf("parts=%d: FromSnapshot: %v", n, err)
		}
		var rt bytes.Buffer
		if err := EncodeStore(&rt, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), rt.Bytes()) {
			t.Errorf("parts=%d: snapshot round-trip through the merge not identical", n)
		}
	}
}

// observerLog records mutations the way the durable log does.
type observerLog struct {
	mu   sync.Mutex
	recs []ReplayRecord
}

func (l *observerLog) ObserveCategory(c Category) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cc := c
	l.recs = append(l.recs, ReplayRecord{Category: &cc})
}

func (l *observerLog) ObserveProduct(version uint64, ownsKey bool, p Product) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := p
	l.recs = append(l.recs, ReplayRecord{Product: &cp, Version: version, OwnsKey: ownsKey})
}

// Replaying an observed mutation sequence into an empty store must
// reproduce the original byte for byte — including shadowed keys, where
// replay order alone cannot decide ownership.
func TestObserverReplayRoundTrip(t *testing.T) {
	st := NewStore()
	var log observerLog
	st.SetObserver(&log)

	schema := Schema{Attributes: []Attribute{{Name: AttrUPC, Kind: KindIdentifier}}}
	for _, id := range []string{"c-a", "c-b"} {
		if err := st.AddCategory(Category{ID: id, Name: id, TopLevel: "T", Schema: schema}); err != nil {
			t.Fatal(err)
		}
	}
	// p-1 claims the shared key first; p-2 in another category is shadowed.
	for _, p := range []Product{
		{ID: "p-1", CategoryID: "c-a", Spec: Spec{{Name: AttrUPC, Value: "shared"}}},
		{ID: "p-2", CategoryID: "c-b", Spec: Spec{{Name: AttrUPC, Value: "shared"}}},
		{ID: "p-3", CategoryID: "c-a", Spec: Spec{{Name: AttrUPC, Value: "solo"}}},
	} {
		if _, err := st.AddProductOutcome(p); err != nil {
			t.Fatal(err)
		}
	}

	got := NewStore()
	for _, rec := range log.recs {
		if err := got.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	var want, have bytes.Buffer
	if err := EncodeStore(&want, st); err != nil {
		t.Fatal(err)
	}
	if err := EncodeStore(&have, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Error("replayed store differs from original")
	}

	// Replay is idempotent: applying the whole log again is a no-op.
	for _, rec := range log.recs {
		if err := got.Replay(rec); err != nil {
			t.Fatalf("second replay: %v", err)
		}
	}
	have.Reset()
	if err := EncodeStore(&have, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Error("double replay changed the store")
	}

	// A version gap is corruption, not something to paper over.
	gap := ReplayRecord{Product: &Product{ID: "p-9", CategoryID: "c-a"}, Version: 99}
	if err := got.Replay(gap); err == nil {
		t.Error("Replay accepted a version gap")
	}
}

// Replay must reject records that do not pass the store's own
// validation: unknown categories, schema violations, duplicate IDs.
func TestReplayRejectsInvalidRecords(t *testing.T) {
	st := NewStore()
	schema := Schema{Attributes: []Attribute{{Name: AttrUPC, Kind: KindIdentifier}}}
	if err := st.AddCategory(Category{ID: "c", Name: "c", TopLevel: "T", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rec  ReplayRecord
	}{
		{"empty", ReplayRecord{}},
		{"unknown category", ReplayRecord{Product: &Product{ID: "p", CategoryID: "nope"}, Version: 1}},
		{"schema violation", ReplayRecord{Product: &Product{ID: "p", CategoryID: "c", Spec: Spec{{Name: "Ghost", Value: "x"}}}, Version: 1}},
		{"keyless ownership claim", ReplayRecord{Product: &Product{ID: "p", CategoryID: "c"}, Version: 1, OwnsKey: true}},
	}
	for _, tc := range cases {
		if err := st.Replay(tc.rec); err == nil {
			t.Errorf("%s: Replay accepted the record", tc.name)
		}
	}
	if err := st.Replay(ReplayRecord{Product: &Product{ID: "p", CategoryID: "c"}, Version: 1}); err != nil {
		t.Fatal(err)
	}
	dup := ReplayRecord{Product: &Product{ID: "p", CategoryID: "c"}, Version: 2}
	if err := st.Replay(dup); !errors.Is(err, ErrDuplicateProduct) {
		t.Errorf("duplicate ID replay: err = %v, want ErrDuplicateProduct", err)
	}
}

// Snapshot reads the whole store under one read lock, so a capture taken
// while writers commit into distinct categories is still one consistent
// state: it loads, every category's version equals its product count,
// and the key table covers exactly the keyed products it captured.
func TestSnapshotAtomic(t *testing.T) {
	const writers, perWriter = 4, 300
	st := NewStore()
	schema := Schema{Attributes: []Attribute{{Name: AttrUPC, Kind: KindIdentifier}}}
	var cats []string
	for i := 0; i < writers; i++ {
		id := fmt.Sprintf("c-%d", i)
		cats = append(cats, id)
		if err := st.AddCategory(Category{ID: id, Name: id, TopLevel: "T", Schema: schema}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w, cat := range cats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := Product{ID: fmt.Sprintf("p-%d-%d", w, i), CategoryID: cat}
				if i%5 != 0 { // every fifth product is keyless
					p.Spec = Spec{{Name: AttrUPC, Value: fmt.Sprintf("k-%d-%d", w, i)}}
				}
				if err := st.AddProduct(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	snaps := make(chan Snapshot, 64)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				select {
				case snaps <- st.Snapshot():
				case <-done:
					return
				}
			}
		}()
	}
	checked := 0
	check := func(snap Snapshot) {
		checked++
		if _, err := FromSnapshot(snap); err != nil {
			t.Fatalf("snapshot %d does not load: %v", checked, err)
		}
		keyed := 0
		for _, cs := range snap.Categories {
			if cs.Version != uint64(len(cs.Products)) {
				t.Fatalf("snapshot %d: category %s at version %d with %d products", checked, cs.Category.ID, cs.Version, len(cs.Products))
			}
			for _, p := range cs.Products {
				if _, ok := p.Key(); ok {
					keyed++
				}
			}
		}
		if len(snap.Keys) != keyed {
			t.Fatalf("snapshot %d: key table has %d keys for %d keyed products", checked, len(snap.Keys), keyed)
		}
	}
	go func() {
		wg.Wait()
		close(done)
		readers.Wait()
		close(snaps)
	}()
	for snap := range snaps {
		check(snap)
	}
	check(st.Snapshot())
	if got := st.NumProducts(); got != writers*perWriter {
		t.Fatalf("NumProducts = %d, want %d", got, writers*perWriter)
	}
}
