package prodsynth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func marketplace(t *testing.T) *Marketplace {
	t.Helper()
	return GenerateMarketplace(MarketplaceConfig{
		Seed:                21,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 20,
		Merchants:           20,
	})
}

// learnSystem learns a Model from ds's historical offers against store and
// builds a System over store from it, both under opts.
func learnSystem(t *testing.T, store *Catalog, ds *Marketplace, opts ...Option) *System {
	t.Helper()
	model, err := Learn(context.Background(), store, ds.HistoricalOffers, MapFetcher(ds.Pages), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(store, model, opts...)
}

func TestSystemLifecycle(t *testing.T) {
	ds := marketplace(t)
	ctx := context.Background()
	sys := NewSystem(ds.Catalog, nil)

	// Without a Model, the System serves nothing and synthesis fails.
	if sys.Model() != nil || sys.Generation() != 0 {
		t.Errorf("System without a Model: Model = %v, Generation = %d", sys.Model(), sys.Generation())
	}
	if _, err := sys.SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages)); !errors.Is(err, ErrNotLearned) {
		t.Fatalf("SynthesizeContext without a Model: err = %v, want ErrNotLearned", err)
	}
	if _, err := sys.SynthesizeBatchesContext(ctx, [][]Offer{ds.IncomingOffers}, MapFetcher(ds.Pages)); !errors.Is(err, ErrNotLearned) {
		t.Fatalf("SynthesizeBatchesContext without a Model: err = %v, want ErrNotLearned", err)
	}

	model, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	if st.TrainingSize == 0 || st.Correspondences == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(model.Correspondences()) != st.Correspondences {
		t.Error("Correspondences length disagrees with stats")
	}
	if len(model.ScoredCandidates()) != st.Candidates {
		t.Error("ScoredCandidates length disagrees with stats")
	}

	sys = NewSystem(ds.Catalog, model)
	res, err := sys.SynthesizeContext(ctx, ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Products) == 0 {
		t.Fatal("no products synthesized")
	}
	if res.PairsMapped == 0 || res.PairsDropped == 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestAddToCatalog(t *testing.T) {
	ds := marketplace(t)
	sys := learnSystem(t, ds.Catalog, ds)
	res, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Catalog.NumProducts()
	report := sys.AddToCatalog(res.Products, "synth")
	if report.Added == 0 {
		t.Fatalf("added = 0, report = %+v", report)
	}
	if got := ds.Catalog.NumProducts(); got != before+report.Added {
		t.Errorf("catalog grew by %d, want %d", got-before, report.Added)
	}
	// Adding the same products again collides on IDs: every product must be
	// reported as a key collision, not lumped in with schema violations.
	again := sys.AddToCatalog(res.Products, "synth")
	if again.Added != 0 || len(again.KeyCollisions) != len(res.Products) {
		t.Errorf("re-add: added=%d collisions=%d of %d", again.Added, len(again.KeyCollisions), len(res.Products))
	}
	if len(again.SchemaViolations) != 0 {
		t.Errorf("re-add reported %d schema violations, want 0", len(again.SchemaViolations))
	}
	if got := len(again.Skipped()); got != len(res.Products) {
		t.Errorf("Skipped() = %d, want %d", got, len(res.Products))
	}
}

// TestAddToCatalogSeparatesCauses feeds AddToCatalog one well-formed
// product, one ID-colliding product, and one schema-violating product, and
// checks each lands in the right bucket.
func TestAddToCatalogSeparatesCauses(t *testing.T) {
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand"}, {Name: AttrMPN, Kind: KindIdentifier},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(store, nil)

	good := Synthesized{CategoryID: "hd", Key: "MPN1", Spec: Spec{{Name: "Brand", Value: "Seagate"}}}
	violating := Synthesized{CategoryID: "hd", Key: "MPN2", Spec: Spec{{Name: "Bogus", Value: "x"}}}

	first := sys.AddToCatalog([]Synthesized{good}, "synth")
	if first.Added != 1 || len(first.KeyCollisions)+len(first.SchemaViolations) != 0 {
		t.Fatalf("first add: %+v", first)
	}
	report := sys.AddToCatalog([]Synthesized{good, violating}, "synth")
	if report.Added != 0 {
		t.Errorf("Added = %d, want 0", report.Added)
	}
	if len(report.KeyCollisions) != 1 || report.KeyCollisions[0].Key != "MPN1" {
		t.Errorf("KeyCollisions = %+v", report.KeyCollisions)
	}
	if len(report.SchemaViolations) != 1 || report.SchemaViolations[0].Key != "MPN2" {
		t.Errorf("SchemaViolations = %+v", report.SchemaViolations)
	}
}

// TestAddToCatalogKeylessNoCrossCallCollision pins the fixed fallback-ID
// scheme: products with no cluster key used to get prefix-<i> IDs, so a
// second AddToCatalog call with the same prefix collided spuriously with
// the first call's keyless products. The store now reserves a unique
// generated ID under its lock, so every call's keyless products insert.
func TestAddToCatalogKeylessNoCrossCallCollision(t *testing.T) {
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives",
		Schema: Schema{Attributes: []Attribute{{Name: "Brand"}}},
	}); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(store, nil)
	keyless := func(brand string) []Synthesized {
		return []Synthesized{{CategoryID: "hd", Key: "", Spec: Spec{{Name: "Brand", Value: brand}}}}
	}
	first := sys.AddToCatalog(keyless("Seagate"), "synth")
	if first.Added != 1 {
		t.Fatalf("first call: %+v", first)
	}
	second := sys.AddToCatalog(keyless("Hitachi"), "synth")
	if second.Added != 1 || len(second.KeyCollisions) != 0 {
		t.Fatalf("second call with same prefix: %+v (cross-call keyless collision?)", second)
	}
	// Two keyless products within one call insert distinctly too.
	third := sys.AddToCatalog(append(keyless("WD"), keyless("Toshiba")...), "synth")
	if third.Added != 2 {
		t.Fatalf("third call: %+v", third)
	}
	if got := store.NumProducts(); got != 4 {
		t.Fatalf("catalog has %d products, want 4", got)
	}
}

// TestAddToCatalogKeylessConcurrent is the regression test for the
// keyless-ID race: fallback IDs used to be minted from NumProducts read
// outside the insert's critical section, so two concurrent AddToCatalog
// calls could read the same count, collide on the generated ID, and
// misreport perfectly valid products as KeyCollisions. IDs are now
// reserved under the store lock; run with -race to also catch the data
// race itself.
func TestAddToCatalogKeylessConcurrent(t *testing.T) {
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives",
		Schema: Schema{Attributes: []Attribute{{Name: "Brand"}}},
	}); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(store, nil)
	// Even a single-CPU machine must interleave the racy window: spread
	// the workers across OS threads, and release each round through a
	// barrier so every round's AddToCatalog calls race on the same store
	// state — the pre-fix count-outside-the-lock scheme collides quickly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers, perCall, rounds = 8, 2, 2000
	var added, collisions atomic.Int64
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([]Synthesized, perCall)
				for i := range batch {
					batch[i] = Synthesized{CategoryID: "hd", Key: "",
						Spec: Spec{{Name: "Brand", Value: "Seagate"}}}
				}
				<-start
				report := sys.AddToCatalog(batch, "synth")
				added.Add(int64(report.Added))
				collisions.Add(int64(len(report.KeyCollisions)))
			}()
		}
		close(start)
		wg.Wait()
	}
	want := int64(workers * perCall * rounds)
	if added.Load() != want || collisions.Load() != 0 {
		t.Fatalf("added %d of %d, %d spurious key collisions (keyless IDs raced?)",
			added.Load(), want, collisions.Load())
	}
	if got := store.NumProducts(); int64(got) != want {
		t.Fatalf("catalog has %d products, want %d", got, want)
	}
}

// TestAddToCatalogReportsShadowedKeys pins the surfacing half of the
// byKey fix at the System level: a synthesized product whose key is
// already owned by an existing catalog product is added (distinct ID)
// but reported in KeyShadowed, and the original keeps the key.
func TestAddToCatalogReportsShadowedKeys(t *testing.T) {
	store := NewCatalog()
	if err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand"}, {Name: AttrMPN, Kind: KindIdentifier},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddProduct(Product{ID: "orig-1", CategoryID: "hd",
		Spec: Spec{{Name: "Brand", Value: "Seagate"}, {Name: AttrMPN, Value: "MPN1"}}}); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(store, nil)
	shadowing := Synthesized{CategoryID: "hd", Key: "MPN1", KeyAttr: AttrMPN,
		Spec: Spec{{Name: "Brand", Value: "Hitachi"}, {Name: AttrMPN, Value: "MPN1"}}}
	report := sys.AddToCatalog([]Synthesized{shadowing}, "synth")
	if report.Added != 1 || len(report.KeyCollisions) != 0 || len(report.SchemaViolations) != 0 {
		t.Fatalf("report = %+v, want 1 added and no rejections", report)
	}
	if len(report.KeyShadowed) != 1 || report.KeyShadowed[0].Key != "MPN1" {
		t.Fatalf("KeyShadowed = %+v, want the MPN1 product", report.KeyShadowed)
	}
	if p, ok := store.ProductByKey("MPN1"); !ok || p.ID != "orig-1" {
		t.Errorf("ProductByKey(MPN1) = %+v, %v; original must keep the key", p, ok)
	}
	if _, ok := store.Product("synth-MPN1"); !ok {
		t.Error("shadowed product was not inserted under its prefixed ID")
	}

	// The keyless path surfaces shadowing the same way: an empty cluster
	// key does not mean the spec carries no UPC/MPN.
	keylessShadowing := Synthesized{CategoryID: "hd", Key: "",
		Spec: Spec{{Name: "Brand", Value: "WD"}, {Name: AttrMPN, Value: "MPN1"}}}
	report = sys.AddToCatalog([]Synthesized{keylessShadowing}, "synth")
	if report.Added != 1 || len(report.KeyShadowed) != 1 {
		t.Fatalf("keyless shadowing report = %+v, want 1 added and 1 shadowed", report)
	}
	if p, ok := store.ProductByKey("MPN1"); !ok || p.ID != "orig-1" {
		t.Errorf("after keyless shadowing, ProductByKey(MPN1) = %+v, %v; want orig-1", p, ok)
	}
}

// productFingerprints renders products comparably across runs.
func productFingerprints(products []Synthesized) []string {
	out := make([]string, len(products))
	for i, p := range products {
		out[i] = fmt.Sprintf("%s/%s=%s %v %s", p.CategoryID, p.KeyAttr, p.Key, p.OfferIDs, p.Spec.String())
	}
	return out
}

// TestSynthesizeBatchesMatchesOneShot is the batch-API determinism
// acceptance test: a single batch holding all offers must produce exactly
// the one-shot Synthesize output, and repeated batch runs must agree with
// each other.
func TestSynthesizeBatchesMatchesOneShot(t *testing.T) {
	ds := marketplace(t)
	sys := learnSystem(t, ds.Catalog, ds)
	oneShot, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	batched, err := sys.SynthesizeBatchesContext(context.Background(), [][]Offer{ds.IncomingOffers}, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Batches) != 1 {
		t.Fatalf("Batches = %d, want 1", len(batched.Batches))
	}
	want := productFingerprints(oneShot.Products)
	got := productFingerprints(batched.Total.Products)
	if len(got) != len(want) {
		t.Fatalf("products: %d batched vs %d one-shot", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  batched:  %s\n  one-shot: %s", i, got[i], want[i])
		}
	}
	if batched.Total.PairsMapped != oneShot.PairsMapped ||
		batched.Total.PairsDropped != oneShot.PairsDropped ||
		batched.Total.OffersWithoutKey != oneShot.OffersWithoutKey ||
		batched.Total.ExcludedMatched != oneShot.ExcludedMatched {
		t.Errorf("counters differ: batched %+v vs one-shot %+v", batched.Total, *oneShot)
	}

	// Split runs are deterministic run-to-run, and their counters aggregate.
	split := [][]Offer{
		ds.IncomingOffers[:len(ds.IncomingOffers)/2],
		ds.IncomingOffers[len(ds.IncomingOffers)/2:],
	}
	b1, err := sys.SynthesizeBatchesContext(context.Background(), split, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sys.SynthesizeBatchesContext(context.Background(), split, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := productFingerprints(b1.Total.Products), productFingerprints(b2.Total.Products)
	if len(f1) != len(f2) {
		t.Fatalf("split runs disagree on product count: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Errorf("split runs differ at product %d", i)
		}
	}
	sum := 0
	for _, r := range b1.Batches {
		sum += len(r.Products)
	}
	if sum != len(b1.Total.Products) {
		t.Errorf("Total.Products = %d, want sum of batches %d", len(b1.Total.Products), sum)
	}

	// Per-batch stats: every batch reports its offer count, match/fusion
	// counts, and a non-zero wall time; totals aggregate them.
	var offers, clusters int
	var elapsed time.Duration
	for i, r := range b1.Batches {
		if r.Offers != len(split[i]) {
			t.Errorf("batch %d Offers = %d, want %d", i, r.Offers, len(split[i]))
		}
		if r.Clusters != len(r.Products) {
			t.Errorf("batch %d Clusters = %d, want %d (one product per cluster)", i, r.Clusters, len(r.Products))
		}
		if r.Elapsed <= 0 {
			t.Errorf("batch %d Elapsed = %v, want > 0", i, r.Elapsed)
		}
		offers += r.Offers
		clusters += r.Clusters
		elapsed += r.Elapsed
	}
	if b1.Total.Offers != offers || b1.Total.Offers != len(ds.IncomingOffers) {
		t.Errorf("Total.Offers = %d, want %d (= %d incoming)", b1.Total.Offers, offers, len(ds.IncomingOffers))
	}
	if b1.Total.Clusters != clusters {
		t.Errorf("Total.Clusters = %d, want %d", b1.Total.Clusters, clusters)
	}
	if b1.Total.Elapsed != elapsed {
		t.Errorf("Total.Elapsed = %v, want summed %v", b1.Total.Elapsed, elapsed)
	}
}

// TestSynthesizeSeesCatalogGrowth closes the loop through the index
// registry: after AddToCatalog commits wave-1 products, re-synthesizing
// the same offers must see them match the grown catalog (stale category
// indexes evicted), excluding them from synthesis.
func TestSynthesizeSeesCatalogGrowth(t *testing.T) {
	ds := marketplace(t)
	sys := learnSystem(t, ds.Catalog, ds)
	res, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Products) == 0 {
		t.Fatal("no products synthesized")
	}
	report := sys.AddToCatalog(res.Products, "synth")
	if report.Added == 0 {
		t.Fatalf("nothing added: %+v", report)
	}

	again, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if again.ExcludedMatched <= res.ExcludedMatched {
		t.Errorf("after catalog growth ExcludedMatched = %d, want > %d (stale indexes not evicted?)",
			again.ExcludedMatched, res.ExcludedMatched)
	}
	if len(again.Products) >= len(res.Products) {
		t.Errorf("after catalog growth synthesized %d products, want < %d",
			len(again.Products), len(res.Products))
	}
}

func TestBuildCatalogByHand(t *testing.T) {
	store := NewCatalog()
	err := store.AddCategory(Category{
		ID: "hd", Name: "Hard Drives", TopLevel: "Computing",
		Schema: Schema{Attributes: []Attribute{
			{Name: "Brand", Kind: KindCategorical},
			{Name: "Capacity", Kind: KindNumeric, Unit: "GB"},
			{Name: AttrMPN, Kind: KindIdentifier},
			{Name: AttrUPC, Kind: KindIdentifier},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = store.AddProduct(Product{
		ID: "p1", CategoryID: "hd",
		Spec: Spec{
			{Name: "Brand", Value: "Seagate"},
			{Name: "Capacity", Value: "500"},
			{Name: AttrMPN, Value: "ST3500"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.NumProducts() != 1 || store.NumCategories() != 1 {
		t.Error("counts wrong")
	}
}
