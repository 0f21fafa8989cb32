package prodsynth

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"prodsynth/internal/categorize"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/ml"
	"prodsynth/internal/offer"
	"prodsynth/internal/snapfmt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden snapshot files")

// handBuiltModel constructs a fully deterministic model without running
// the learner: every float is exactly representable and every count is
// fixed, so its encoded bytes are stable across platforms — the golden
// file pins the on-disk format itself, not the learner's output.
func handBuiltModel() *Model {
	key := offer.SchemaKey{Merchant: "hdshop", CategoryID: "computing/hard-drives"}
	key2 := offer.SchemaKey{Merchant: "driveking", CategoryID: "computing/hard-drives"}
	scored := []correspond.Scored{
		{Candidate: correspond.Candidate{Key: key, MerchantAttr: "RPM", CatalogAttr: "Speed"}, Score: 0.96875},
		{Candidate: correspond.Candidate{Key: key, MerchantAttr: "Hard Disk Size", CatalogAttr: "Capacity"}, Score: 0.875},
		{Candidate: correspond.Candidate{Key: key2, MerchantAttr: "Speed", CatalogAttr: "Speed"}, Score: 0.75},
		{Candidate: correspond.Candidate{Key: key, MerchantAttr: "Availability", CatalogAttr: "Interface"}, Score: 0.125},
	}
	set := correspond.NewSet()
	for _, sc := range scored[:3] {
		set.Add(sc)
	}
	classifier := categorize.New()
	classifier.TrainFromOffers([]Offer{
		{CategoryID: "computing/hard-drives", Title: "seagate barracuda hard drive"},
		{CategoryID: "computing/hard-drives", Title: "hitachi deskstar hdd"},
		{CategoryID: "cameras/digital", Title: "canon powershot camera"},
	})
	return &Model{offline: &core.OfflineResult{
		Correspondences: set,
		Scored:          scored,
		Model: &correspond.Model{
			LR:                &ml.Logistic{Weights: []float64{0.5, -0.25, 1, 0, 0.125, -2}, Bias: 0.0625},
			TrainingSize:      8,
			TrainingPositives: 3,
		},
		Classifier: classifier,
		Stats: core.OfflineStats{
			HistoricalOffers: 9, MatchedOffers: 8, Candidates: 4,
			TrainingSize: 8, TrainingPositives: 3, Correspondences: 3,
		},
	}}
}

func saveToBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corrFingerprints renders correspondences comparably (they are returned
// in unspecified order).
func corrFingerprints(t *testing.T, corr []Correspondence) []string {
	t.Helper()
	out := make([]string, len(corr))
	for i, c := range corr {
		out[i] = c.Key.String() + "|" + c.MerchantAttr + "->" + c.CatalogAttr + "|" +
			"score=" + formatScore(c.Score)
	}
	sort.Strings(out)
	return out
}

// formatScore renders a score at full precision, so a single-ULP drift in
// a round-tripped correspondence fails the comparison.
func formatScore(f float64) string {
	return strconv.FormatFloat(f, 'b', -1, 64)
}

// TestModelRoundTrip is the acceptance test for persistence: a model
// learned in one process, saved, and loaded by a "fresh process" —
// simulated by a new, identically populated Catalog and LoadModel from
// bytes — produces Synthesize output byte-identical to the in-memory
// model, identical correspondences, and the same scored candidates in the
// same order to the bit.
func TestModelRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 21} {
		t.Run("seed_"+strconv.FormatInt(seed, 10), func(t *testing.T) { testModelRoundTrip(t, seed) })
	}
}

func testModelRoundTrip(t *testing.T, seed int64) {
	ctx := context.Background()
	cfg := MarketplaceConfig{Seed: seed, CategoriesPerDomain: 2, ProductsPerCategory: 20, Merchants: 20}
	ds := GenerateMarketplace(cfg)
	model, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := NewSystem(ds.Catalog, model).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	raw := saveToBytes(t, model)
	loaded, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// The "fresh process": a second marketplace generated from the same
	// seed has an identically populated but distinct Catalog, and the
	// model arrives only through its serialized bytes.
	ds2 := GenerateMarketplace(cfg)
	fresh, err := NewSystem(ds2.Catalog, loaded).SynthesizeContext(ctx, ds2.IncomingOffers, MapFetcher(ds2.Pages))
	if err != nil {
		t.Fatal(err)
	}

	want, got := productFingerprints(inMem.Products), productFingerprints(fresh.Products)
	if len(got) != len(want) {
		t.Fatalf("loaded model synthesized %d products, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  loaded:    %s\n  in-memory: %s", i, got[i], want[i])
		}
	}
	if fresh.PairsMapped != inMem.PairsMapped || fresh.PairsDropped != inMem.PairsDropped ||
		fresh.ExcludedMatched != inMem.ExcludedMatched || fresh.OffersWithoutKey != inMem.OffersWithoutKey {
		t.Errorf("counters differ: loaded %+v vs in-memory %+v", *fresh, *inMem)
	}

	wantCorr := corrFingerprints(t, model.Correspondences())
	gotCorr := corrFingerprints(t, loaded.Correspondences())
	if len(wantCorr) != len(gotCorr) {
		t.Fatalf("correspondences: %d loaded vs %d in-memory", len(gotCorr), len(wantCorr))
	}
	for i := range wantCorr {
		if gotCorr[i] != wantCorr[i] {
			t.Errorf("correspondence %d differs:\n  loaded:    %s\n  in-memory: %s", i, gotCorr[i], wantCorr[i])
		}
	}
	if loaded.Stats() != model.Stats() {
		t.Errorf("stats differ: %+v vs %+v", loaded.Stats(), model.Stats())
	}
	wantScored, gotScored := model.ScoredCandidates(), loaded.ScoredCandidates()
	if len(gotScored) != len(wantScored) {
		t.Fatalf("scored candidates: %d loaded vs %d in-memory", len(gotScored), len(wantScored))
	}
	for i, w := range wantScored {
		g := gotScored[i]
		if g.Candidate != w.Candidate || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("scored candidate %d differs:\n  loaded:    %v %s\n  in-memory: %v %s",
				i, g.Candidate, formatScore(g.Score), w.Candidate, formatScore(w.Score))
		}
	}

	// Determinism: save→load→save is byte-identical, so snapshots can be
	// content-addressed.
	if again := saveToBytes(t, loaded); !bytes.Equal(again, raw) {
		t.Error("re-encoding a loaded model changed the bytes")
	}
}

// TestModelGoldenSnapshot pins the on-disk format: the hand-built model
// must encode to exactly the checked-in golden file, so any format change
// forces a deliberate version bump. Refresh with -update-golden.
func TestModelGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "model_v2.golden")
	raw := saveToBytes(t, handBuiltModel())
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
		t.Fatalf("encoded model (%d bytes) differs from golden file (%d bytes); "+
			"if the format change is intentional, bump core.SnapshotVersion and run with -update-golden",
			len(raw), len(want))
	}
	// And the golden bytes decode to a model that still serves: its
	// correspondences survive intact.
	m, err := LoadModel(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Correspondences()); got != 3 {
		t.Errorf("golden model has %d correspondences, want 3", got)
	}
	if m.Stats().TrainingSize != 8 {
		t.Errorf("golden model stats = %+v", m.Stats())
	}
}

// frameModelRows frames a hand-written model payload: zero stats, the
// name table {hdshop, Speed}, the score table {0.5}, then the given
// correspondence and scored-candidate sections, no logistic model and no
// classifier. It lets a test place one bad index or count exactly.
func frameModelRows(t *testing.T, corr, scored []byte) []byte {
	t.Helper()
	p := make([]byte, 6*8)
	p = binary.LittleEndian.AppendUint32(p, 2)
	for _, s := range []string{"hdshop", "Speed"} {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
		p = append(p, s...)
	}
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
	p = append(append(p, corr...), scored...)
	p = append(p, 0, 0)
	var buf bytes.Buffer
	if err := snapfmt.Encode(&buf, [4]byte{'P', 'S', 'M', 'D'}, ModelFormatVersion, 1<<30, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rowSection encodes one row section: its u32 row count, then the given
// uvarint indexes.
func rowSection(count uint32, ix ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for _, i := range ix {
		b = binary.AppendUvarint(b, i)
	}
	return b
}

// TestLoadModelStrict pins the decode error paths: every corruption mode
// errors with ErrBadModel, never a panic or a partial model, and the same
// bytes as a bundle's model half error with ErrBadBundle.
func TestLoadModelStrict(t *testing.T) {
	valid := saveToBytes(t, handBuiltModel())
	mutate := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		return b
	}
	noRows := rowSection(0)
	oneRow := rowSection(1, 0, 1, 0, 1, 0)
	// The hand-written frame is valid as it stands; each case below breaks
	// exactly one thing in it.
	if _, err := LoadModel(bytes.NewReader(frameModelRows(t, oneRow, oneRow))); err != nil {
		t.Fatalf("hand-written model frame does not load: %v", err)
	}
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	overlong := append(rowSection(1), bytes.Repeat([]byte{0x80}, 10)...)
	overlong = append(overlong, 0x01, 1, 0, 1, 0)
	cases := []struct {
		name string
		data []byte
		msg  string // when set, the error must mention it
	}{
		{"empty", nil, ""},
		{"short header", valid[:10], ""},
		{"bad magic", mutate(0), ""},
		{"bad version", mutate(4), ""},
		{"bad length", mutate(8), ""},
		{"bad checksum", mutate(16), ""},
		{"corrupt payload", mutate(len(valid) - 1), ""},
		{"truncated payload", valid[:len(valid)-7], ""},
		{"trailing data", append(append([]byte(nil), valid...), 0), ""},
		{"v1 frame", v1, "unsupported format version 1"},
		{"name index out of range", frameModelRows(t, oneRow, rowSection(1, 0, 1, 2, 1, 0)), "name index 2 out of range 2"},
		{"score index out of range", frameModelRows(t, rowSection(1, 0, 1, 0, 1, 1), noRows), "score index 1 out of range 1"},
		{"overlong uvarint", frameModelRows(t, overlong, noRows), "uvarint overflows 64 bits"},
		{"row count past payload", frameModelRows(t, noRows, rowSection(1000, 0, 1, 0, 1, 0)), "scored candidates count 1000 exceeds remaining payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadModel(bytes.NewReader(tc.data))
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("err = %v, want ErrBadModel", err)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.msg)
			}
			if m != nil {
				t.Fatal("corrupt input returned a non-nil model")
			}
			payload := append(saveCatalogBytes(t, handBuiltCatalog(t)), tc.data...)
			store, m, err := LoadBundle(bytes.NewReader(frameBundlePayload(t, payload)))
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("as a bundle's model half: err = %v, want ErrBadBundle", err)
			}
			if store != nil || m != nil {
				t.Fatal("corrupt bundle returned non-nil state")
			}
		})
	}
}

// TestSystemUseHotSwap pins the atomic model swap: a System built from one
// model serves a different one after Use, and Use(nil) returns the system
// to the unlearned state.
func TestSystemUseHotSwap(t *testing.T) {
	ctx := context.Background()
	ds := marketplace(t)
	m1, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(ds.Catalog, m1)
	if sys.Model() != m1 {
		t.Fatal("Model() is not the constructed model")
	}
	res1, err := sys.SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	// A re-learned model (different threshold → different artifact).
	m2, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages), WithScoreThreshold(0.99))
	if err != nil {
		t.Fatal(err)
	}
	sys.Use(m2)
	if sys.Model() != m2 {
		t.Fatal("Use did not swap the model")
	}
	res2, err := sys.SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if res1.PairsMapped == res2.PairsMapped && res1.PairsDropped == res2.PairsDropped {
		t.Log("warning: threshold change produced identical mapping counts; swap still verified by pointer")
	}

	sys.Use(nil)
	if _, err := sys.SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages)); !errors.Is(err, ErrNotLearned) {
		t.Fatalf("after Use(nil): err = %v, want ErrNotLearned", err)
	}
}

// TestModelFromCorrespondences pins the TSV-interchange path: a model
// wrapped around an externally supplied correspondence set reconciles with
// it at runtime.
func TestModelFromCorrespondences(t *testing.T) {
	ctx := context.Background()
	ds := marketplace(t)
	learned, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	wrapped := ModelFromCorrespondences(ds.Catalog, learned.Correspondences())
	if got, want := len(wrapped.Correspondences()), len(learned.Correspondences()); got != want {
		t.Fatalf("wrapped model has %d correspondences, want %d", got, want)
	}
	res, err := NewSystem(ds.Catalog, wrapped).SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Products) == 0 || res.PairsMapped == 0 {
		t.Fatalf("wrapped model synthesized nothing: %+v", res)
	}
}

// FuzzLoadModel proves corrupt or truncated snapshots error cleanly: no
// panic, no partial model, every error wraps ErrBadModel, and any input
// that does decode re-encodes and re-decodes stably.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, handBuiltModel()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add([]byte{})
	f.Add([]byte("PSMD junk that is not a snapshot"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("err = %v, want ErrBadModel", err)
			}
			if m != nil {
				t.Fatal("error with non-nil model")
			}
			return
		}
		var out bytes.Buffer
		if err := SaveModel(&out, m); err != nil {
			t.Fatalf("re-encoding a decoded model failed: %v", err)
		}
		if _, err := LoadModel(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-decoding a re-encoded model failed: %v", err)
		}
	})
}
