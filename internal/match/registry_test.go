package match

import (
	"fmt"
	"sync"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

// manyOffers builds n title-only offers in one category.
func manyOffers(n int, categoryID, title string) *offer.Set {
	offs := make([]offer.Offer, n)
	for i := range offs {
		offs[i] = offer.Offer{
			ID: fmt.Sprintf("o%d", i), Merchant: "m",
			CategoryID: categoryID, Title: title,
		}
	}
	return offer.NewSet(offs)
}

// TestRegistryBuildsOncePerCategory is the regression test for the W×C
// redundant index builds the per-goroutine caches used to do: under
// Workers=8 a category's index must be constructed exactly once, and a
// second Run against the same catalog must not build at all.
func TestRegistryBuildsOncePerCategory(t *testing.T) {
	st := testStore(t)
	reg := NewRegistry()
	m := Matcher{Workers: 8, Registry: reg}

	set := manyOffers(400, "hd", "Western Digital Raptor X")
	ms := m.Run(st, set)
	if ms.Len() == 0 {
		t.Fatal("no matches; the build-count assertion would be vacuous")
	}
	if got := reg.Builds(); got != 1 {
		t.Errorf("Builds after first run = %d, want 1 (one category)", got)
	}

	m.Run(st, set)
	if got := reg.Builds(); got != 1 {
		t.Errorf("Builds after warm rerun = %d, want still 1", got)
	}

	// A second category builds its own entry, once.
	camSet := manyOffers(100, "cam", "Canon EOS 40D")
	m.Run(st, camSet)
	if got := reg.Builds(); got != 2 {
		t.Errorf("Builds after second category = %d, want 2", got)
	}
}

// TestRegistryConcurrentAcquire races many goroutines at a cold registry:
// all must observe the same index, built once.
func TestRegistryConcurrentAcquire(t *testing.T) {
	st := testStore(t)
	reg := NewRegistry()
	var wg sync.WaitGroup
	indexes := make([]*TitleIndex, 32)
	for g := range indexes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			indexes[g] = reg.TitleIndex(st, "hd")
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(indexes); g++ {
		if indexes[g] != indexes[0] {
			t.Fatalf("goroutine %d saw a different index instance", g)
		}
	}
	if got := reg.Builds(); got != 1 {
		t.Errorf("Builds = %d, want 1", got)
	}
}

// TestRegistryInvalidationOnAddProduct verifies that inserting a product
// into a category evicts the warm entry: an offer that matched nothing
// must match the new product on the next run.
func TestRegistryInvalidationOnAddProduct(t *testing.T) {
	st := testStore(t)
	reg := NewRegistry()
	m := Matcher{Registry: reg}
	set := offer.NewSet([]offer.Offer{
		{ID: "o1", Merchant: "m", CategoryID: "hd", Title: "Hitachi Deskstar HDT725050"},
	})

	if ms := m.Run(st, set); ms.Len() != 0 {
		t.Fatalf("offer matched before the product exists: %+v", ms.All())
	}

	err := st.AddProduct(catalog.Product{
		ID: "p-deskstar", CategoryID: "hd",
		Spec: catalog.Spec{
			{Name: "Brand", Value: "Hitachi"},
			{Name: "Model", Value: "Deskstar HDT725050"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ms := m.Run(st, set)
	got, ok := ms.ProductFor("o1")
	if !ok || got.ProductID != "p-deskstar" {
		t.Errorf("after AddProduct: match = %+v, %v (stale index not evicted?)", got, ok)
	}
	// The post-insertion state arrives as a posting-list delta, not a
	// second cold build.
	if builds := reg.Builds(); builds != 1 {
		t.Errorf("Builds = %d, want 1 (insertion applies a delta, not a rebuild)", builds)
	}
	if deltas := reg.Deltas(); deltas != 1 {
		t.Errorf("Deltas = %d, want 1", deltas)
	}
}

// TestRegistryInvalidateAndRelease exercises the manual eviction surface.
func TestRegistryInvalidateAndRelease(t *testing.T) {
	st := testStore(t)
	reg := NewRegistry()
	reg.TitleIndex(st, "hd")
	reg.Invalidate(st, "hd")
	reg.TitleIndex(st, "hd")
	if got := reg.Builds(); got != 2 {
		t.Errorf("Builds after Invalidate = %d, want 2", got)
	}
	reg.ReleaseStore(st)
	if got := reg.Entries(); got != 0 {
		t.Errorf("Entries after ReleaseStore = %d, want 0", got)
	}
}

// TestMatcherWorkerCountInvariance asserts identical MatchSet output across
// worker counts on a mixed workload (acceptance criterion for the shared
// registry refactor).
func TestMatcherWorkerCountInvariance(t *testing.T) {
	st := testStore(t)
	var offs []offer.Offer
	titles := []string{
		"Seagate Barracuda 7200.10 HDD",
		"Western Digital Raptor X",
		"Canon EOS 40D",
		"Completely unrelated gadget xyz",
	}
	for i := 0; i < 300; i++ {
		cat := "hd"
		if i%4 == 2 {
			cat = "cam"
		}
		offs = append(offs, offer.Offer{
			ID: fmt.Sprintf("o%d", i), Merchant: "m",
			CategoryID: cat, Title: titles[i%4],
		})
	}
	set := offer.NewSet(offs)
	base := Matcher{Workers: 1}.Run(st, set)
	for _, w := range []int{2, 4, 8} {
		got := Matcher{Workers: w}.Run(st, set)
		if got.Len() != base.Len() {
			t.Fatalf("Workers=%d: Len=%d, want %d", w, got.Len(), base.Len())
		}
		for _, m := range base.All() {
			gm, ok := got.ProductFor(m.OfferID)
			if !ok || gm.ProductID != m.ProductID || gm.Score != m.Score {
				t.Fatalf("Workers=%d: %s -> %+v, want %+v", w, m.OfferID, gm, m)
			}
		}
	}
}
