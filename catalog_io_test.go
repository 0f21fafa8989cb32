package prodsynth

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prodsynth/internal/snapfmt"
)

// handBuiltCatalog constructs a fully deterministic catalog without the
// generator: fixed categories, products with and without keys, a shadowed
// key, and unicode values, so its encoded bytes are stable across
// platforms — the golden file pins the on-disk format itself.
func handBuiltCatalog(t testing.TB) *Catalog {
	t.Helper()
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "computing/hard-drives", Name: "Hard Drives", TopLevel: "Computing",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand", Kind: KindCategorical},
			{Name: "Capacity", Kind: KindNumeric, Unit: "GB"},
			{Name: AttrMPN, Kind: KindIdentifier},
			{Name: AttrUPC, Kind: KindIdentifier},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddCategory(Category{
		ID: "cameras/digital", Name: "Digital Cameras", TopLevel: "Cameras",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand", Kind: KindCategorical},
			{Name: "Description", Kind: KindText},
			{Name: AttrMPN, Kind: KindIdentifier},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	add := func(p Product) {
		t.Helper()
		if _, err := store.AddProductOutcome(p); err != nil {
			t.Fatal(err)
		}
	}
	add(Product{ID: "hd1", CategoryID: "computing/hard-drives", Spec: Spec{
		{Name: "Brand", Value: "Seagate"},
		{Name: "Capacity", Value: "500"},
		{Name: AttrMPN, Value: "ST3500"},
	}})
	add(Product{ID: "hd2", CategoryID: "computing/hard-drives", Spec: Spec{
		{Name: "Brand", Value: "Hitachi"},
		{Name: AttrMPN, Value: "ST3500"}, // shadowed by hd1
	}})
	add(Product{ID: "hd3", CategoryID: "computing/hard-drives", Spec: Spec{
		{Name: "Capacity", Value: "750"}, // keyless
	}})
	add(Product{ID: "cam1", CategoryID: "cameras/digital", Spec: Spec{
		{Name: "Brand", Value: "Canon"},
		{Name: "Description", Value: "compact µFour-Thirds ✓"},
		{Name: AttrMPN, Value: "PSX-100"},
	}})
	return store
}

func saveCatalogBytes(t *testing.T, store *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, store); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCatalogRoundTrip is the acceptance test for the catalog half of
// warm start: a catalog populated in one process, saved, and loaded by a
// "fresh process" — simulated by LoadCatalog from bytes, with nothing
// shared — serves synthesis byte-identically to the original store,
// reports identical CategoryVersion values, and keeps ProductsSince
// deltas working across the boundary.
func TestCatalogRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds := marketplace(t)
	model, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := NewSystem(ds.Catalog, model).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	raw := saveCatalogBytes(t, ds.Catalog)
	loaded, err := LoadCatalog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Behavioral identity: every category agrees on version, product set,
	// and insertion order.
	cats := ds.Catalog.Categories()
	if got := loaded.Categories(); len(got) != len(cats) {
		t.Fatalf("categories: %d loaded vs %d original", len(got), len(cats))
	}
	for _, c := range cats {
		if gv, wv := loaded.CategoryVersion(c.ID), ds.Catalog.CategoryVersion(c.ID); gv != wv {
			t.Errorf("CategoryVersion(%s) = %d loaded vs %d original", c.ID, gv, wv)
		}
		want, wantV := ds.Catalog.ProductsInCategoryVersioned(c.ID)
		got, gotV := loaded.ProductsInCategoryVersioned(c.ID)
		if gotV != wantV || len(got) != len(want) {
			t.Fatalf("category %s: %d products at v%d loaded vs %d at v%d", c.ID, len(got), gotV, len(want), wantV)
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Spec.String() != want[i].Spec.String() {
				t.Errorf("category %s product %d differs after load", c.ID, i)
			}
		}
		// ProductsSince works on the loaded store from any persisted version.
		if wantV > 0 {
			delta, v, ok := loaded.ProductsSince(c.ID, wantV-1)
			if !ok || v != wantV || len(delta) != 1 || delta[0].ID != want[len(want)-1].ID {
				t.Errorf("ProductsSince(%s, %d) after load = %v, %d, %v", c.ID, wantV-1, delta, v, ok)
			}
		}
	}

	// The fresh process synthesizes byte-identically over the loaded
	// catalog (model arrives through its own snapshot, as a daemon would).
	loadedModel, err := LoadModel(bytes.NewReader(saveToBytes(t, model)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(loaded, loadedModel).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	want, got := productFingerprints(inMem.Products), productFingerprints(fresh.Products)
	if len(got) != len(want) {
		t.Fatalf("loaded catalog synthesized %d products, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  loaded:    %s\n  in-memory: %s", i, got[i], want[i])
		}
	}
	if fresh.ExcludedMatched != inMem.ExcludedMatched || fresh.PairsMapped != inMem.PairsMapped {
		t.Errorf("counters differ: loaded %+v vs in-memory %+v", *fresh, *inMem)
	}

	// Determinism: save→load→save is byte-identical.
	if again := saveCatalogBytes(t, loaded); !bytes.Equal(again, raw) {
		t.Error("re-encoding a loaded catalog changed the bytes")
	}

	// Growth after load keeps the versioned delta surface alive: the
	// loaded store picks up where the original's append log left off.
	report := NewSystem(loaded, loadedModel).AddToCatalog(fresh.Products, "synth")
	if report.Added == 0 {
		t.Fatalf("nothing added to loaded catalog: %+v", report)
	}
}

// TestLoadCatalogStrict pins the decode error paths: every corruption
// mode errors with ErrBadCatalog, never a panic or a partial store.
func TestLoadCatalogStrict(t *testing.T) {
	valid := saveCatalogBytes(t, handBuiltCatalog(t))
	mutate := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:10]},
		{"bad magic", mutate(0)},
		{"bad version", mutate(4)},
		{"bad length", mutate(8)},
		{"bad checksum", mutate(16)},
		{"corrupt payload", mutate(len(valid) - 1)},
		{"truncated payload", valid[:len(valid)-7]},
		{"trailing data", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := LoadCatalog(bytes.NewReader(tc.data))
			if !errors.Is(err, ErrBadCatalog) {
				t.Fatalf("err = %v, want ErrBadCatalog", err)
			}
			if store != nil {
				t.Fatal("corrupt input returned a non-nil store")
			}
		})
	}
}

// TestCatalogGoldenSnapshot pins the on-disk catalog format: the
// hand-built store must encode to exactly the checked-in golden file, so
// any format change forces a deliberate version bump. Refresh with
// -update-golden.
func TestCatalogGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "catalog_v1.golden")
	raw := saveCatalogBytes(t, handBuiltCatalog(t))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("encoded catalog (%d bytes) differs from golden file (%d bytes); "+
			"if the format change is intentional, bump catalog.SnapshotVersion and run with -update-golden",
			len(raw), len(want))
	}
	// And the golden bytes decode to a store that still serves.
	store, err := LoadCatalog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if store.NumCategories() != 2 || store.NumProducts() != 4 {
		t.Errorf("golden catalog has %d categories, %d products", store.NumCategories(), store.NumProducts())
	}
	if p, ok := store.ProductByKey("ST3500"); !ok || p.ID != "hd1" {
		t.Errorf("golden catalog ProductByKey(ST3500) = %+v, %v; want hd1", p, ok)
	}
	if v := store.CategoryVersion("computing/hard-drives"); v != 3 {
		t.Errorf("golden catalog CategoryVersion = %d, want 3", v)
	}
}

// TestBundleRoundTrip proves one artifact carries both halves: a bundle
// saved from a learned system and loaded into a "fresh process" yields a
// store and model that synthesize byte-identically — the zero-reingestion,
// zero-relearning cold start.
func TestBundleRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds := marketplace(t)
	model, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := NewSystem(ds.Catalog, model).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveBundle(&buf, ds.Catalog, model); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	store, loaded, err := LoadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if store.NumProducts() != ds.Catalog.NumProducts() {
		t.Fatalf("bundle store has %d products, want %d", store.NumProducts(), ds.Catalog.NumProducts())
	}
	fresh, err := NewSystem(store, loaded).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	want, got := productFingerprints(inMem.Products), productFingerprints(fresh.Products)
	if len(got) != len(want) {
		t.Fatalf("bundle synthesized %d products, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  bundle:    %s\n  in-memory: %s", i, got[i], want[i])
		}
	}

	// Determinism: save→load→save is byte-identical.
	var again bytes.Buffer
	if err := SaveBundle(&again, store, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Error("re-encoding a loaded bundle changed the bytes")
	}
}

// TestLoadBundleStrict pins the bundle decode error paths, including that
// a corrupt half keeps wrapping its own sentinel alongside ErrBadBundle.
func TestLoadBundleStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBundle(&buf, handBuiltCatalog(t), handBuiltModel()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	mutate := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:10]},
		{"bad magic", mutate(0)},
		{"bad version", mutate(4)},
		{"bad length", mutate(8)},
		{"bad checksum", mutate(16)},
		{"corrupt payload", mutate(len(valid) - 1)},
		{"truncated payload", valid[:len(valid)-7]},
		{"trailing data", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, m, err := LoadBundle(bytes.NewReader(tc.data))
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("err = %v, want ErrBadBundle", err)
			}
			if store != nil || m != nil {
				t.Fatal("corrupt input returned non-nil state")
			}
		})
	}

	// A payload that is a catalog block with no model half fails as a
	// truncated model half, still wrapping ErrBadModel.
	catOnly := saveCatalogBytes(t, handBuiltCatalog(t))
	// Hand-frame a bundle whose payload is only the catalog block.
	short := frameBundlePayload(t, catOnly)
	if _, _, err := LoadBundle(bytes.NewReader(short)); !errors.Is(err, ErrBadBundle) || !errors.Is(err, ErrBadModel) {
		t.Fatalf("catalog-only bundle err = %v, want ErrBadBundle wrapping ErrBadModel", err)
	}
	// And a bundle whose catalog half is corrupt reports ErrBadCatalog.
	corruptCat := append([]byte(nil), catOnly...)
	corruptCat[len(corruptCat)-1] ^= 0xFF
	var modelBuf bytes.Buffer
	if err := SaveModel(&modelBuf, handBuiltModel()); err != nil {
		t.Fatal(err)
	}
	bad := frameBundlePayload(t, append(corruptCat, modelBuf.Bytes()...))
	if _, _, err := LoadBundle(bytes.NewReader(bad)); !errors.Is(err, ErrBadBundle) || !errors.Is(err, ErrBadCatalog) {
		t.Fatalf("corrupt-catalog bundle err = %v, want ErrBadBundle wrapping ErrBadCatalog", err)
	}
}

// TestLoadErrorsCarryByteOffsets pins the debuggability fix for corrupt
// multi-gigabyte artifacts: LoadCatalog and LoadBundle errors name the
// byte offset of the bad frame — absolute file coordinates, even for the
// blocks embedded in a bundle payload.
func TestLoadErrorsCarryByteOffsets(t *testing.T) {
	valid := saveCatalogBytes(t, handBuiltCatalog(t))

	// Truncated catalog: the frame starts at byte 0 and the error says
	// exactly where the input ran out.
	cut := len(valid) - 7
	_, err := LoadCatalog(bytes.NewReader(valid[:cut]))
	if err == nil {
		t.Fatal("truncated catalog loaded")
	}
	for _, want := range []string{"frame at byte 0", fmt.Sprintf("input ends at byte %d", cut)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("truncated catalog error %q does not mention %q", err, want)
		}
	}

	// A bundle whose model half is truncated: the error locates the model
	// frame at its absolute offset — outer header + catalog block.
	var modelBuf bytes.Buffer
	if err := SaveModel(&modelBuf, handBuiltModel()); err != nil {
		t.Fatal(err)
	}
	mb := modelBuf.Bytes()
	payload := append(append([]byte(nil), valid...), mb[:len(mb)-3]...)
	_, _, err = LoadBundle(bytes.NewReader(frameBundlePayload(t, payload)))
	if err == nil {
		t.Fatal("truncated bundle loaded")
	}
	wantOff := fmt.Sprintf("frame at byte %d", snapfmt.HeaderSize+len(valid))
	if !strings.Contains(err.Error(), wantOff) {
		t.Errorf("truncated-model bundle error %q does not mention %q", err, wantOff)
	}

	// Garbage where the catalog half should start: located right after
	// the outer header.
	_, _, err = LoadBundle(bytes.NewReader(frameBundlePayload(t, []byte("not a catalog block at all"))))
	if err == nil {
		t.Fatal("garbage bundle loaded")
	}
	wantOff = fmt.Sprintf("frame at byte %d", snapfmt.HeaderSize)
	if !strings.Contains(err.Error(), wantOff) {
		t.Errorf("garbage-catalog bundle error %q does not mention %q", err, wantOff)
	}
}

// frameBundlePayload wraps raw bytes in a valid outer bundle frame, so
// tests can drive the inner-half error paths past the checksum.
func frameBundlePayload(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapfmt.Encode(&buf, bundleMagic, BundleFormatVersion, maxBundlePayload, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadBundle proves the daemon's boot input errors cleanly: no panic,
// no partial state, every error wraps ErrBadBundle, and any input that
// does decode re-encodes and re-decodes stably.
func FuzzLoadBundle(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveBundle(&buf, handBuiltCatalog(f), handBuiltModel()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		store, m, err := LoadBundle(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("err = %v, want ErrBadBundle", err)
			}
			if store != nil || m != nil {
				t.Fatal("error with non-nil state")
			}
			return
		}
		var out bytes.Buffer
		if err := SaveBundle(&out, store, m); err != nil {
			t.Fatalf("re-encoding a decoded bundle failed: %v", err)
		}
		if _, _, err := LoadBundle(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-decoding a re-encoded bundle failed: %v", err)
		}
	})
}

// FuzzLoadCatalog proves corrupt or truncated catalog snapshots error
// cleanly: no panic, no partial store, and any input that does decode
// re-encodes canonically and re-decodes stably.
func FuzzLoadCatalog(f *testing.F) {
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives", TopLevel: "Computing",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand", Kind: KindCategorical},
			{Name: AttrMPN, Kind: KindIdentifier},
		}},
	}); err != nil {
		f.Fatal(err)
	}
	if err := store.AddProduct(Product{ID: "p1", CategoryID: "hd", Spec: Spec{
		{Name: "Brand", Value: "Seagate"}, {Name: AttrMPN, Value: "ST3500"}}}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, store); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add([]byte{})
	f.Add([]byte("PSCT junk that is not a snapshot"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadCatalog(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatal("error with non-nil store")
			}
			return
		}
		var out bytes.Buffer
		if err := SaveCatalog(&out, st); err != nil {
			t.Fatalf("re-encoding a decoded catalog failed: %v", err)
		}
		st2, err := LoadCatalog(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded catalog failed: %v", err)
		}
		var out2 bytes.Buffer
		if err := SaveCatalog(&out2, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("canonical re-encoding is not a fixed point")
		}
	})
}
