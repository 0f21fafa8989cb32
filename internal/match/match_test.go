package match

import (
	"fmt"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

func testStore(t *testing.T) *catalog.Store {
	t.Helper()
	st := catalog.NewStore()
	cat := catalog.Category{
		ID: "hd", Name: "Hard Drives", TopLevel: "Computing",
		Schema: catalog.Schema{Attributes: []catalog.Attribute{
			{Name: "Brand"}, {Name: "Model"},
			{Name: catalog.AttrMPN, Kind: catalog.KindIdentifier},
			{Name: catalog.AttrUPC, Kind: catalog.KindIdentifier},
		}},
	}
	if err := st.AddCategory(cat); err != nil {
		t.Fatal(err)
	}
	cam := cat
	cam.ID = "cam"
	cam.Name = "Cameras"
	if err := st.AddCategory(cam); err != nil {
		t.Fatal(err)
	}
	add := func(id, categoryID, brand, model, mpn, upc string) {
		t.Helper()
		err := st.AddProduct(catalog.Product{
			ID: id, CategoryID: categoryID,
			Spec: catalog.Spec{
				{Name: "Brand", Value: brand},
				{Name: "Model", Value: model},
				{Name: catalog.AttrMPN, Value: mpn},
				{Name: catalog.AttrUPC, Value: upc},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("p-barracuda", "hd", "Seagate", "Barracuda 7200.10", "ST3250", "0001")
	add("p-raptor", "hd", "Western Digital", "Raptor X", "WD1500", "0002")
	add("p-eos", "cam", "Canon", "EOS 40D", "EOS40D", "0003")
	return st
}

func TestMatcherUPC(t *testing.T) {
	st := testStore(t)
	offers := offer.NewSet([]offer.Offer{
		{ID: "o1", Merchant: "m", CategoryID: "hd", Title: "some drive",
			Spec: catalog.Spec{{Name: catalog.AttrUPC, Value: "0002"}}},
	})
	ms := Matcher{}.Run(st, offers)
	got, ok := ms.ProductFor("o1")
	if !ok || got.ProductID != "p-raptor" || got.Source != "upc" || got.Score != 1 {
		t.Errorf("match = %+v, %v", got, ok)
	}
}

func TestMatcherUPCWrongCategoryRejected(t *testing.T) {
	st := testStore(t)
	// Offer categorized as camera, but UPC belongs to a hard drive:
	// identifier matches must stay within the offer's category. The
	// offer has no title, so only its identifier could match it.
	offers := offer.NewSet([]offer.Offer{
		{ID: "o1", Merchant: "m", CategoryID: "cam",
			Spec: catalog.Spec{{Name: catalog.AttrUPC, Value: "0001"}}},
	})
	ms := Matcher{}.Run(st, offers)
	if _, ok := ms.ProductFor("o1"); ok {
		t.Error("cross-category UPC match should be rejected")
	}
}

func TestMatcherTitle(t *testing.T) {
	st := testStore(t)
	offers := offer.NewSet([]offer.Offer{
		{ID: "o1", Merchant: "m", CategoryID: "hd",
			Title: "Seagate Barracuda 7200.10 HDD"},
		{ID: "o2", Merchant: "m", CategoryID: "hd",
			Title: "Completely unrelated gadget xyz"},
	})
	ms := Matcher{}.Run(st, offers)
	got, ok := ms.ProductFor("o1")
	if !ok || got.ProductID != "p-barracuda" || got.Source != "title" {
		t.Errorf("match = %+v, %v", got, ok)
	}
	if _, ok := ms.ProductFor("o2"); ok {
		t.Error("unrelated title should not match")
	}
}

func TestMatchSetIndexes(t *testing.T) {
	ms := NewMatchSet([]Match{
		{OfferID: "o1", ProductID: "p1"},
		{OfferID: "o2", ProductID: "p1"},
		{OfferID: "o3", ProductID: "p2"},
		{OfferID: "o1", ProductID: "p9"}, // duplicate offer: dropped
	})
	if ms.Len() != 3 {
		t.Errorf("Len = %d", ms.Len())
	}
	m, ok := ms.ProductFor("o1")
	if !ok || m.ProductID != "p1" {
		t.Errorf("ProductFor(o1) = %+v (duplicate should have been dropped)", m)
	}
	if _, ok := ms.ProductFor("missing"); ok {
		t.Error("ProductFor(missing) found a match")
	}
}

func TestMatcherParallelConsistency(t *testing.T) {
	st := testStore(t)
	var offs []offer.Offer
	for i := 0; i < 200; i++ {
		o := offer.Offer{
			ID:       "o" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Merchant: "m", CategoryID: "hd",
			Title: "Western Digital Raptor X",
		}
		offs = append(offs, o)
	}
	set := offer.NewSet(offs)
	a := Matcher{Workers: 1}.Run(st, set)
	b := Matcher{Workers: 8}.Run(st, set)
	if a.Len() != b.Len() {
		t.Errorf("worker counts disagree: %d vs %d", a.Len(), b.Len())
	}
	for _, m := range a.All() {
		bm, ok := b.ProductFor(m.OfferID)
		if !ok || bm.ProductID != m.ProductID {
			t.Errorf("mismatch for %s", m.OfferID)
		}
	}
}

func BenchmarkMatcherTitle(b *testing.B) {
	st := catalog.NewStore()
	cat := catalog.Category{ID: "hd", Schema: catalog.Schema{Attributes: []catalog.Attribute{
		{Name: "Brand"}, {Name: "Model"}, {Name: catalog.AttrMPN},
	}}}
	if err := st.AddCategory(cat); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		id := "p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		if err := st.AddProduct(catalog.Product{ID: id, CategoryID: "hd",
			Spec: catalog.Spec{{Name: "Model", Value: "Model " + id}, {Name: catalog.AttrMPN, Value: id}}}); err != nil {
			b.Fatal(err)
		}
	}
	var offs []offer.Offer
	for i := 0; i < 1000; i++ {
		offs = append(offs, offer.Offer{ID: string(rune(i)), CategoryID: "hd", Merchant: "m",
			Title: "Model pab gadget"})
	}
	set := offer.NewSet(offs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Matcher{Workers: 4}.Run(st, set)
	}
}

func TestTitleIndexBasic(t *testing.T) {
	st := testStore(t)
	idx := NewTitleIndex(st.ProductsInCategory("hd"))
	if idx.Len() != 2 {
		t.Fatalf("Len = %d", idx.Len())
	}
	pid, score := idx.Match("Seagate Barracuda 7200.10 hard drive")
	if pid != "p-barracuda" || score <= 0.5 {
		t.Errorf("Match = %q, %.3f", pid, score)
	}
	pid, score = idx.Match("Western Digital Raptor X")
	if pid != "p-raptor" {
		t.Errorf("Match = %q, %.3f", pid, score)
	}
}

func TestTitleIndexUnknownTokensPenalized(t *testing.T) {
	st := testStore(t)
	idx := NewTitleIndex(st.ProductsInCategory("hd"))
	// A title of mostly-unknown tokens must score low even if one token
	// ("Seagate") is indexed.
	_, score := idx.Match("Seagate zzz qqq www vvv uuu ttt")
	if score > 0.5 {
		t.Errorf("unknown-heavy title scored %.3f", score)
	}
}

func TestTitleIndexRareTokensDominate(t *testing.T) {
	// Ten same-brand products with distinct part numbers: a title pairing
	// a rare token (part number) with an unknown word must outscore one
	// pairing a common token (brand) with an unknown word, because IDF
	// weights the covered mass.
	var products []catalog.Product
	for i := 0; i < 10; i++ {
		products = append(products, catalog.Product{
			ID: fmt.Sprintf("p%d", i),
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Seagate"},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("PARTNUM%d", i)},
			},
		})
	}
	idx := NewTitleIndex(products)
	_, partScore := idx.Match("PARTNUM3 qqqzzz")
	_, brandScore := idx.Match("Seagate qqqzzz")
	if partScore <= brandScore {
		t.Errorf("part number score %.3f should beat brand score %.3f", partScore, brandScore)
	}
}

func TestTitleIndexEmpty(t *testing.T) {
	idx := NewTitleIndex(nil)
	if pid, score := idx.Match("anything"); pid != "" || score != 0 {
		t.Errorf("empty index matched %q %.3f", pid, score)
	}
	full := NewTitleIndex([]catalog.Product{{ID: "p", Spec: catalog.Spec{{Name: "A", Value: "x"}}}})
	if pid, _ := full.Match(""); pid != "" {
		t.Errorf("empty title matched %q", pid)
	}
}

func TestIndexedMatcherAgreesOnClearCases(t *testing.T) {
	st := testStore(t)
	offers := offer.NewSet([]offer.Offer{
		{ID: "o1", Merchant: "m", CategoryID: "hd", Title: "Seagate Barracuda 7200.10 ST3250"},
		{ID: "o2", Merchant: "m", CategoryID: "cam", Title: "Canon EOS 40D EOS40D"},
		{ID: "o3", Merchant: "m", CategoryID: "hd", Title: "nothing relevant whatsoever xyz"},
	})
	indexed := Matcher{}.Run(st, offers)
	for oid, want := range map[string]string{"o1": "p-barracuda", "o2": "p-eos"} {
		if m, ok := indexed.ProductFor(oid); !ok || m.ProductID != want || m.Source != "title" {
			t.Errorf("%s: got %+v(%v), want title match to %s", oid, m, ok, want)
		}
	}
	if _, ok := indexed.ProductFor("o3"); ok {
		t.Error("indexed matcher matched an irrelevant title")
	}
}

func BenchmarkTitleIndexMatch(b *testing.B) {
	st := catalog.NewStore()
	cat := catalog.Category{ID: "hd", Schema: catalog.Schema{Attributes: []catalog.Attribute{
		{Name: "Brand"}, {Name: "Model"}, {Name: catalog.AttrMPN},
	}}}
	if err := st.AddCategory(cat); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := st.AddProduct(catalog.Product{ID: id, CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Seagate"},
				{Name: "Model", Value: fmt.Sprintf("Model %d", i)},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("MPN%07d", i)},
			}}); err != nil {
			b.Fatal(err)
		}
	}
	idx := NewTitleIndex(st.ProductsInCategory("hd"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Match("Seagate Model 2500 MPN0002500 hard drive")
	}
}
