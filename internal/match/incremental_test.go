package match

import (
	"fmt"
	"sync"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

// growStore adds n products to the category with predictable specs.
func growStore(t *testing.T, st *catalog.Store, categoryID string, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		err := st.AddProduct(catalog.Product{
			ID: fmt.Sprintf("p-grown-%s-%d", categoryID, i), CategoryID: categoryID,
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Growth Corp"},
				{Name: "Model", Value: fmt.Sprintf("Grown Model %d", i)},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("GROWN%04d", i)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mixedOffers builds offers across both test categories, some aimed at
// the seed products, some at grown products, some at nothing.
func mixedOffers(n int) *offer.Set {
	titles := []string{
		"Seagate Barracuda 7200.10 HDD",
		"Western Digital Raptor X",
		"Canon EOS 40D",
		"Growth Corp Grown Model 3",
		"GROWN0007 drive",
		"Completely unrelated gadget xyz",
	}
	offs := make([]offer.Offer, n)
	for i := range offs {
		cat := "hd"
		if i%5 == 2 {
			cat = "cam"
		}
		offs[i] = offer.Offer{
			ID: fmt.Sprintf("o%d", i), Merchant: "m",
			CategoryID: cat, Title: titles[i%len(titles)],
		}
	}
	return offer.NewSet(offs)
}

func assertSameMatches(t *testing.T, label string, want, got *MatchSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", label, got.Len(), want.Len())
	}
	for _, m := range want.All() {
		gm, ok := got.ProductFor(m.OfferID)
		if !ok || gm != m {
			t.Fatalf("%s: %s -> %+v (ok=%v), want %+v", label, m.OfferID, gm, ok, m)
		}
	}
}

// TestRegistryIncrementalEqualsColdBuild is the acceptance test for
// posting-list deltas: after AddProduct, the warm registry must apply an
// incremental update — Builds does not move for the touched category —
// and the resulting MatchSet must be identical (IDs, sources, and exact
// scores) to one produced by a cold rebuild at the same catalog state.
func TestRegistryIncrementalEqualsColdBuild(t *testing.T) {
	st := testStore(t)
	warm := NewRegistry()
	m := Matcher{Workers: 4, Registry: warm}
	set := mixedOffers(300)

	m.Run(st, set) // build both categories warm
	buildsBefore := warm.Builds()

	growStore(t, st, "hd", 0, 7)
	growStore(t, st, "cam", 0, 3)

	gotWarm := m.Run(st, set)
	if got := warm.Builds(); got != buildsBefore {
		t.Errorf("Builds moved %d -> %d after AddProduct; want deltas, not rebuilds", buildsBefore, got)
	}
	if got := warm.Deltas(); got != 2 {
		t.Errorf("Deltas = %d, want 2 (one per touched category)", got)
	}

	cold := Matcher{Workers: 4, Registry: NewRegistry()}.Run(st, set)
	assertSameMatches(t, "incremental vs cold", cold, gotWarm)

	// A chain of further deltas stays equivalent too.
	growStore(t, st, "hd", 7, 5)
	gotWarm = m.Run(st, set)
	cold = Matcher{Workers: 4, Registry: NewRegistry()}.Run(st, set)
	assertSameMatches(t, "second delta vs cold", cold, gotWarm)
	if got := warm.Builds(); got != buildsBefore {
		t.Errorf("Builds moved to %d on the second delta", got)
	}
}

// TestRegistryShardCountInvariance asserts byte-identical matcher output
// across entry bounds, crossed with worker counts: the bound only decides
// what is rebuilt, never what matches.
func TestRegistryShardCountInvariance(t *testing.T) {
	st := testStore(t)
	growStore(t, st, "hd", 0, 10)
	set := mixedOffers(300)

	base := Matcher{Workers: 1, Registry: NewRegistry()}.Run(st, set)
	for _, maxEntries := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 8} {
			m := Matcher{Workers: workers, Registry: NewRegistryWithOptions(RegistryOptions{MaxEntries: maxEntries})}
			got := m.Run(st, set)
			assertSameMatches(t, fmt.Sprintf("maxEntries=%d workers=%d", maxEntries, workers), base, got)
		}
	}
}

// TestRegistryMaxEntriesExact pins MaxEntries as an exact global bound:
// touching nine categories through a three-entry registry never caches
// more than three, and matcher output equals an unbounded registry's.
func TestRegistryMaxEntriesExact(t *testing.T) {
	const cats, bound = 9, 3
	st := catalog.NewStore()
	schema := catalog.Schema{Attributes: []catalog.Attribute{{Name: "Brand"}, {Name: "Model"}}}
	var offs []offer.Offer
	for c := 0; c < cats; c++ {
		id := fmt.Sprintf("c%d", c)
		if err := st.AddCategory(catalog.Category{ID: id, Name: id, TopLevel: "T", Schema: schema}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			model := fmt.Sprintf("Model %d-%d", c, i)
			err := st.AddProduct(catalog.Product{
				ID: fmt.Sprintf("p-%d-%d", c, i), CategoryID: id,
				Spec: catalog.Spec{{Name: "Brand", Value: "Acme"}, {Name: "Model", Value: model}},
			})
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, offer.Offer{
				ID: fmt.Sprintf("o-%d-%d", c, i), Merchant: "m", CategoryID: id,
				Title: "Acme " + model,
			})
		}
	}

	reg := NewRegistryWithOptions(RegistryOptions{MaxEntries: bound})
	for round := 0; round < 3; round++ {
		for c := 0; c < cats; c++ {
			reg.TitleIndex(st, fmt.Sprintf("c%d", (c*4+round)%cats))
			if got := reg.Entries(); got > bound {
				t.Fatalf("round %d, lookup %d: Entries = %d, want <= %d", round, c, got, bound)
			}
		}
	}
	if got := reg.Entries(); got != bound {
		t.Errorf("Entries = %d, want %d once more categories than the bound were touched", got, bound)
	}

	set := offer.NewSet(offs)
	base := Matcher{Workers: 1, Registry: NewRegistry()}.Run(st, set)
	if base.Len() == 0 {
		t.Fatal("no matches; the output comparison would be vacuous")
	}
	for _, workers := range []int{1, 4} {
		got := Matcher{Workers: workers, Registry: reg}.Run(st, set)
		assertSameMatches(t, fmt.Sprintf("workers=%d", workers), base, got)
		if n := reg.Entries(); n > bound {
			t.Fatalf("workers=%d: Entries = %d after a run, want <= %d", workers, n, bound)
		}
	}
}

// TestRegistryLRUEviction covers the MaxEntries bound: cold categories
// fall off the LRU, Entries stays within the bound, and a re-touched
// category rebuilds.
func TestRegistryLRUEviction(t *testing.T) {
	st := testStore(t)
	reg := NewRegistryWithOptions(RegistryOptions{MaxEntries: 1})
	m := Matcher{Registry: reg}

	hd := manyOffers(10, "hd", "Western Digital Raptor X")
	cam := manyOffers(10, "cam", "Canon EOS 40D")

	m.Run(st, hd)
	if got := reg.Builds(); got != 1 {
		t.Fatalf("Builds after hd = %d, want 1", got)
	}
	m.Run(st, cam) // evicts hd
	if got := reg.Builds(); got != 2 {
		t.Fatalf("Builds after cam = %d, want 2", got)
	}
	if got := reg.Entries(); got != 1 {
		t.Errorf("Entries = %d, want 1 (bound)", got)
	}

	// Re-touching the evicted category rebuilds it (correct output, one
	// more cold build) rather than serving a dropped entry.
	ms := m.Run(st, hd)
	if got := reg.Builds(); got != 3 {
		t.Errorf("Builds after hd re-touch = %d, want 3 (rebuild)", got)
	}
	if got, ok := ms.ProductFor("o1"); !ok || got.ProductID != "p-raptor" {
		t.Errorf("post-eviction match = %+v, %v", got, ok)
	}
	if got := reg.Entries(); got != 1 {
		t.Errorf("Entries after re-touch = %d, want 1", got)
	}

	// An unbounded registry keeps both.
	unbounded := NewRegistry()
	mu := Matcher{Registry: unbounded}
	mu.Run(st, hd)
	mu.Run(st, cam)
	if got := unbounded.Entries(); got != 2 {
		t.Errorf("unbounded Entries = %d, want 2", got)
	}
}

// TestRegistryConcurrentExtendAndMatch pins the delta path's one
// by-design unsynchronized write/read pair: extend appends into backing
// arrays shared with the previous index, and must only ever touch memory
// past every concurrent reader's slice length. Matchers hammer a warm
// index while AddProduct + TitleIndex drive a chain of extends; the race
// detector (CI runs this under -race) catches any extend that starts
// writing inside the previous generation's bounds.
func TestRegistryConcurrentExtendAndMatch(t *testing.T) {
	st := testStore(t)
	growStore(t, st, "hd", 0, 50)
	reg := NewRegistry()
	reg.TitleIndex(st, "hd") // warm

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Each acquisition may observe an older or newer
				// generation; both must be readable mid-extend.
				idx := reg.TitleIndex(st, "hd")
				idx.Match("Growth Corp Grown Model 3 extra")
				idx.Match("GROWN0049 unseen token")
			}
		}()
	}
	for i := 0; i < 30; i++ {
		growStore(t, st, "hd", 50+i, 1)
		reg.TitleIndex(st, "hd") // apply the delta
	}
	close(stop)
	wg.Wait()

	// The chain of deltas must still equal a cold build.
	set := mixedOffers(100)
	warm := Matcher{Registry: reg}.Run(st, set)
	cold := Matcher{Registry: NewRegistry()}.Run(st, set)
	assertSameMatches(t, "post-concurrent-extend", cold, warm)
}

// TestMatchWarmAllocs is the allocation regression guard on the warm
// Match path: with the index built and the scratch pool warm, a Match
// call must not allocate.
func TestMatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool instrumentation allocates")
	}
	st := testStore(t)
	growStore(t, st, "hd", 0, 50)
	idx := NewTitleIndex(st.ProductsInCategory("hd"))
	title := "Growth Corp Grown Model 17 brandnewtoken xyz"
	idx.Match(title) // warm IDF + scratch pool
	if n := testing.AllocsPerRun(200, func() { idx.Match(title) }); n > 0 {
		t.Errorf("warm Match allocates %.1f times per call, want 0", n)
	}
}
