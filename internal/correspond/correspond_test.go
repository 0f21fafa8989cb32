package correspond

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
)

// figure5Fixture builds the paper's Figure 5 scenario: a hard-drive catalog
// with Speed/Interface attributes, and one merchant whose offers use
// RPM/Int. Type. Historical matches link each offer to its product.
func figure5Fixture(t *testing.T) (*catalog.Store, *offer.Set, *match.MatchSet) {
	t.Helper()
	st := catalog.NewStore()
	cat := catalog.Category{
		ID: "hd", Name: "Hard Drives", TopLevel: "Computing",
		Schema: catalog.Schema{Attributes: []catalog.Attribute{
			{Name: "Brand"}, {Name: "Model"},
			{Name: "Speed", Kind: catalog.KindNumeric},
			{Name: "Interface"},
		}},
	}
	if err := st.AddCategory(cat); err != nil {
		t.Fatal(err)
	}
	type row struct{ brand, model, speed, iface string }
	rows := []row{
		{"Seagate", "Barracuda", "5400", "ATA 100"},
		{"Seagate", "Cheetah", "10000", "ATA 100"}, // no offer matches this one
		{"Western Digital", "Raptor", "7200", "IDE 133"},
		{"Seagate", "Momentus", "5400", "IDE 133"},
		{"Hitachi", "39T2525", "7200", "ATA 133"},
		{"Hitachi", "38L2392", "10000", "SCSI"}, // no offer matches this one
	}
	for i, r := range rows {
		err := st.AddProduct(catalog.Product{
			ID: fmt.Sprintf("p%d", i), CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Brand", Value: r.brand},
				{Name: "Model", Value: r.model},
				{Name: "Speed", Value: r.speed},
				{Name: "Interface", Value: r.iface},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Merchant offers (Figure 5a right side), with merchant vocabulary.
	offers := []offer.Offer{
		{ID: "o0", Merchant: "hdshop", CategoryID: "hd", Spec: catalog.Spec{
			{Name: "Product Description", Value: "Seagate Barracuda HD"},
			{Name: "RPM", Value: "5400"},
			{Name: "Int. Type", Value: "ATA 100 mb/s"},
		}},
		{ID: "o2", Merchant: "hdshop", CategoryID: "hd", Spec: catalog.Spec{
			{Name: "Product Description", Value: "WD RaptorHDD"},
			{Name: "RPM", Value: "7200"},
			{Name: "Int. Type", Value: "IDE 133 mb/s"},
		}},
		{ID: "o3", Merchant: "hdshop", CategoryID: "hd", Spec: catalog.Spec{
			{Name: "Product Description", Value: "Seagate Momentus"},
			{Name: "RPM", Value: "5400"},
			{Name: "Int. Type", Value: "IDE 133 mb/s"},
		}},
		{ID: "o4", Merchant: "hdshop", CategoryID: "hd", Spec: catalog.Spec{
			{Name: "Product Description", Value: "Hitachi model 39T2525"},
			{Name: "RPM", Value: "7200"},
			{Name: "Int. Type", Value: "ATA 133 mb/s"},
		}},
	}
	matches := match.NewMatchSet([]match.Match{
		{OfferID: "o0", ProductID: "p0", Source: "upc", Score: 1},
		{OfferID: "o2", ProductID: "p2", Source: "upc", Score: 1},
		{OfferID: "o3", ProductID: "p3", Source: "upc", Score: 1},
		{OfferID: "o4", ProductID: "p4", Source: "upc", Score: 1},
	})
	return st, offer.NewSet(offers), matches
}

func TestFigure5FeatureOrdering(t *testing.T) {
	st, offers, matches := figure5Fixture(t)
	ft := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true})

	key := offer.SchemaKey{Merchant: "hdshop", CategoryID: "hd"}
	get := func(ap, ao, feat string) float64 {
		i, ok := ft.Lookup(Candidate{Key: key, CatalogAttr: ap, MerchantAttr: ao})
		if !ok {
			t.Fatalf("candidate <%s,%s> missing", ap, ao)
		}
		return ft.Features(i)[slices.Index(ft.Names(), feat)]
	}

	// Figure 5d: JS(Speed, RPM) = 0 -> similarity 1; disjoint pairs -> 0.
	if got := get("Speed", "RPM", "JS-MC"); got < 0.999 {
		t.Errorf("JS-MC(Speed,RPM) similarity = %g, want ~1", got)
	}
	if got := get("Speed", "Int. Type", "JS-MC"); got > 0.01 {
		t.Errorf("JS-MC(Speed,Int.Type) = %g, want ~0", got)
	}
	if got := get("Interface", "RPM", "JS-MC"); got > 0.01 {
		t.Errorf("JS-MC(Interface,RPM) = %g, want ~0", got)
	}
	// Interface vs Int. Type: close but not identical (0.13 JS in paper).
	ifaceIT := get("Interface", "Int. Type", "JS-MC")
	if ifaceIT < 0.6 || ifaceIT > 0.99 {
		t.Errorf("JS-MC(Interface,Int.Type) = %g, want high but < 1", ifaceIT)
	}
	// Jaccard: Speed/RPM identical token sets -> 1.
	if got := get("Speed", "RPM", "Jaccard-MC"); got != 1 {
		t.Errorf("Jaccard-MC(Speed,RPM) = %g, want 1", got)
	}
}

func TestCandidateEnumeration(t *testing.T) {
	st, offers, matches := figure5Fixture(t)
	ft := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true})
	// 4 catalog attrs x 3 merchant attrs = 12 candidates.
	if ft.Len() != 12 {
		t.Errorf("candidates = %d, want 12", ft.Len())
	}
	// Ranking breaks score ties by candidate index and Lookup
	// binary-searches, so enumeration must ascend strictly.
	assertAscending(t, ft.Candidates())
	for i, c := range ft.Candidates() {
		if j, ok := ft.Lookup(c); !ok || j != i {
			t.Errorf("Lookup(%v) = %d, %v; want %d", c, j, ok, i)
		}
	}
	if _, ok := ft.Lookup(Candidate{Key: ft.Candidates()[0].Key, CatalogAttr: "Speed", MerchantAttr: "Nope"}); ok {
		t.Error("Lookup found a candidate that was never enumerated")
	}
	// Deterministic ordering across runs.
	ft2 := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true, Workers: 8})
	for i := range ft.Candidates() {
		if ft.Candidates()[i] != ft2.Candidates()[i] {
			t.Fatalf("candidate order differs at %d", i)
		}
		for j := range ft.Features(i) {
			if ft.Features(i)[j] != ft2.Features(i)[j] {
				t.Fatalf("feature (%d,%d) differs", i, j)
			}
		}
	}
}

func TestNoMatchesModeDiffers(t *testing.T) {
	st, offers, matches := figure5Fixture(t)
	withM := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true})
	without := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: false})
	key := offer.SchemaKey{Merchant: "hdshop", CategoryID: "hd"}
	c := Candidate{Key: key, CatalogAttr: "Speed", MerchantAttr: "RPM"}
	i1, _ := withM.Lookup(c)
	i2, _ := without.Lookup(c)
	// With matches the Speed/RPM distributions are identical (sim 1);
	// without, the catalog contains 10000-rpm products no offer covers,
	// so similarity must drop (the paper's §3.1 motivating example).
	col := slices.Index(FeatureNames, "JS-MC")
	simWith := withM.Features(i1)[col]
	simWithout := without.Features(i2)[col]
	if simWithout >= simWith {
		t.Errorf("no-match similarity %g should be < match-restricted %g", simWithout, simWith)
	}
}

// syntheticTable builds a multi-merchant scenario where half the merchants
// use identical names (training signal) and half rename, so the classifier
// must generalize from identities to renamed attributes.
func syntheticTable(t *testing.T) (*FeatureTable, map[Candidate]bool) {
	t.Helper()
	st, set, ms, truth := syntheticInputs(t)
	ft := ComputeFeatures(st, set, ms, FeatureOptions{UseMatches: true})
	_ = st
	return ft, truth
}

// syntheticInputs builds the multi-merchant scenario shared by several
// tests: m0/m1 use identical names, m2/m3 rename.
func syntheticInputs(t *testing.T) (*catalog.Store, *offer.Set, *match.MatchSet, map[Candidate]bool) {
	t.Helper()
	st := catalog.NewStore()
	cat := catalog.Category{
		ID: "hd", Name: "Hard Drives",
		Schema: catalog.Schema{Attributes: []catalog.Attribute{
			{Name: "Speed"}, {Name: "Interface"}, {Name: "Capacity"},
		}},
	}
	if err := st.AddCategory(cat); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	speeds := []string{"5400", "7200", "10000", "15000"}
	ifaces := []string{"SATA", "IDE", "SCSI"}
	caps := []string{"250", "500", "750", "1000"}

	var prods []catalog.Product
	for i := 0; i < 60; i++ {
		p := catalog.Product{
			ID: fmt.Sprintf("p%d", i), CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Speed", Value: speeds[rng.Intn(len(speeds))]},
				{Name: "Interface", Value: ifaces[rng.Intn(len(ifaces))]},
				{Name: "Capacity", Value: caps[rng.Intn(len(caps))]},
			},
		}
		if err := st.AddProduct(p); err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	// Merchants: m0/m1 use identical names; m2/m3 rename.
	rename := map[string]map[string]string{
		"m0": {"Speed": "Speed", "Interface": "Interface", "Capacity": "Capacity"},
		"m1": {"Speed": "Speed", "Interface": "Interface", "Capacity": "Capacity"},
		"m2": {"Speed": "RPM", "Interface": "Int. Type", "Capacity": "Hard Disk Size"},
		"m3": {"Speed": "Rotational Speed", "Interface": "Connection", "Capacity": "Size"},
	}
	var offs []offer.Offer
	var ms []match.Match
	n := 0
	for merchant, names := range rename {
		for i, p := range prods {
			if (i+len(merchant))%3 != 0 { // each merchant covers ~1/3 of products
				continue
			}
			n++
			oid := fmt.Sprintf("o%d", n)
			spec := catalog.Spec{}
			for _, av := range p.Spec {
				spec = append(spec, catalog.AttributeValue{Name: names[av.Name], Value: av.Value})
			}
			// Every merchant also exposes a noise attribute whose values
			// match nothing in the catalog.
			spec = append(spec, catalog.AttributeValue{Name: "Availability", Value: []string{"In Stock", "Ships Today"}[rng.Intn(2)]})
			offs = append(offs, offer.Offer{ID: oid, Merchant: merchant, CategoryID: "hd", Spec: spec})
			ms = append(ms, match.Match{OfferID: oid, ProductID: p.ID, Source: "upc", Score: 1})
		}
	}
	truth := make(map[Candidate]bool)
	for merchant, names := range rename {
		key := offer.SchemaKey{Merchant: merchant, CategoryID: "hd"}
		for catName, mName := range names {
			truth[Candidate{Key: key, CatalogAttr: catName, MerchantAttr: mName}] = true
		}
	}
	return st, offer.NewSet(offs), match.NewMatchSet(ms), truth
}

func TestTrainingSetConstruction(t *testing.T) {
	ft, _ := syntheticTable(t)
	ts := BuildTrainingSet(ft)
	if ts.Positives == 0 {
		t.Fatal("no positives")
	}
	if len(ts.Examples) <= ts.Positives {
		t.Fatal("no negatives")
	}
	// m0/m1 have 3 identities each -> 6 positives. Negatives: for each
	// identity attribute A, the other merchant attrs B != A. m0/m1 expose
	// 4 attrs (3 + Availability) so 3 non-identity per identity attr.
	if ts.Positives != 6 {
		t.Errorf("positives = %d, want 6", ts.Positives)
	}
	if got := len(ts.Examples) - ts.Positives; got != 18 {
		t.Errorf("negatives = %d, want 18", got)
	}
}

func TestTrainAndRankCorrespondences(t *testing.T) {
	ft, truth := syntheticTable(t)
	model, err := Train(ft, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scored := model.ScoreAll(ft)

	// Evaluate ranking on non-identity candidates only (§5.2 protocol).
	var correctAbove, total int
	var worstTrue, bestFalse float64 = 1, 0
	for _, sc := range scored {
		if sc.NameIdentity() {
			continue
		}
		if truth[sc.Candidate] {
			total++
			if sc.Score < worstTrue {
				worstTrue = sc.Score
			}
			if sc.Score >= 0.5 {
				correctAbove++
			}
		} else if sc.Score > bestFalse {
			bestFalse = sc.Score
		}
	}
	if total != 6 {
		t.Fatalf("expected 6 renamed true correspondences, got %d", total)
	}
	if correctAbove < 5 {
		t.Errorf("only %d/6 true renamed correspondences scored >= 0.5 (worst true %.3f, best false %.3f)",
			correctAbove, worstTrue, bestFalse)
	}
	// The classifier must separate: noise attr "Availability" should not
	// outrank real correspondences.
	for _, sc := range scored {
		if sc.MerchantAttr == "Availability" && sc.Score > worstTrue && sc.Score > 0.5 {
			t.Errorf("noise candidate %v scored %.3f above a true correspondence", sc.Candidate, sc.Score)
		}
	}
}

func TestScoreSingleFeature(t *testing.T) {
	ft, _ := syntheticTable(t)
	scored, err := ScoreSingleFeature(ft, "JS-MC")
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != ft.Len() {
		t.Fatalf("scored = %d", len(scored))
	}
	for i := 1; i < len(scored); i++ {
		if scored[i].Score > scored[i-1].Score {
			t.Fatal("not sorted descending")
		}
	}
	if _, err := ScoreSingleFeature(ft, "nope"); err == nil {
		t.Error("unknown feature should error")
	}
}

func TestSetSelectAndLookup(t *testing.T) {
	key := offer.SchemaKey{Merchant: "m", CategoryID: "c"}
	scored := []Scored{
		{Candidate: Candidate{Key: key, CatalogAttr: "Speed", MerchantAttr: "RPM"}, Score: 0.9},
		{Candidate: Candidate{Key: key, CatalogAttr: "Capacity", MerchantAttr: "RPM"}, Score: 0.7}, // loses argmax
		{Candidate: Candidate{Key: key, CatalogAttr: "Interface", MerchantAttr: "Conn"}, Score: 0.3},
		{Candidate: Candidate{Key: key, CatalogAttr: "Brand", MerchantAttr: "Brand"}, Score: 0.2}, // identity: kept
	}
	set := Select(scored, 0.5)
	if ap, ok := set.Lookup(key, "RPM"); !ok || ap != "Speed" {
		t.Errorf("RPM -> %q, %v", ap, ok)
	}
	if _, ok := set.Lookup(key, "Conn"); ok {
		t.Error("below-threshold non-identity kept")
	}
	if ap, ok := set.Lookup(key, "Brand"); !ok || ap != "Brand" {
		t.Error("identity should be kept regardless of score")
	}
	if set.Len() != 2 {
		t.Errorf("Len = %d, want 2", set.Len())
	}
	if len(set.All()) != 2 {
		t.Errorf("All = %v", set.All())
	}
	if _, ok := set.Lookup(offer.SchemaKey{Merchant: "other"}, "RPM"); ok {
		t.Error("wrong key should miss")
	}
}

func TestModelDeterministic(t *testing.T) {
	ft, _ := syntheticTable(t)
	m1, err := Train(ft, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(ft, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := m1.ScoreAll(ft)
	s2 := m2.ScoreAll(ft)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("scored[%d] differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func BenchmarkComputeFeatures(b *testing.B) {
	st := catalog.NewStore()
	cat := catalog.Category{ID: "hd", Schema: catalog.Schema{Attributes: []catalog.Attribute{
		{Name: "Speed"}, {Name: "Interface"}, {Name: "Capacity"}, {Name: "Brand"},
	}}}
	if err := st.AddCategory(cat); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var offs []offer.Offer
	var ms []match.Match
	for i := 0; i < 200; i++ {
		pid := fmt.Sprintf("p%d", i)
		if err := st.AddProduct(catalog.Product{ID: pid, CategoryID: "hd", Spec: catalog.Spec{
			{Name: "Speed", Value: fmt.Sprintf("%d", 5400+rng.Intn(5)*1200)},
			{Name: "Interface", Value: "SATA"},
			{Name: "Capacity", Value: "500"},
			{Name: "Brand", Value: "Seagate"},
		}}); err != nil {
			b.Fatal(err)
		}
		oid := fmt.Sprintf("o%d", i)
		offs = append(offs, offer.Offer{ID: oid, Merchant: fmt.Sprintf("m%d", i%10), CategoryID: "hd", Spec: catalog.Spec{
			{Name: "RPM", Value: "7200"}, {Name: "Int. Type", Value: "SATA"},
			{Name: "Size", Value: "500 GB"}, {Name: "Make", Value: "Seagate"},
		}})
		ms = append(ms, match.Match{OfferID: oid, ProductID: pid})
	}
	set := offer.NewSet(offs)
	matches := match.NewMatchSet(ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeFeatures(st, set, matches, FeatureOptions{UseMatches: true})
	}
}

func TestNameFeature(t *testing.T) {
	st, offers, matches := figure5Fixture(t)
	ft := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true, IncludeNameFeature: true})
	if got := len(ft.Names()); got != len(FeatureNames)+1 {
		t.Fatalf("feature width = %d, want %d", got, len(FeatureNames)+1)
	}
	key := offer.SchemaKey{Merchant: "hdshop", CategoryID: "hd"}
	i, ok := ft.Lookup(Candidate{Key: key, CatalogAttr: "Interface", MerchantAttr: "Int. Type"})
	if !ok {
		t.Fatal("candidate missing")
	}
	name := slices.Index(ft.Names(), NameFeature)
	near := ft.Features(i)[name]
	j, _ := ft.Lookup(Candidate{Key: key, CatalogAttr: "Speed", MerchantAttr: "Int. Type"})
	far := ft.Features(j)[name]
	if near <= far {
		t.Errorf("name similarity: Interface/Int.Type %.3f <= Speed/Int.Type %.3f", near, far)
	}
}

func TestNameFeatureTraining(t *testing.T) {
	// Training still works with the extra dimension (needs a fixture
	// with name identities).
	st, offers, matches, _ := syntheticInputs(t)
	wide := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true, IncludeNameFeature: true})
	if _, err := Train(wide, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDropFeature(t *testing.T) {
	st, offers, matches := figure5Fixture(t)
	ft := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true})
	dropped := ft.DropFeature("JS-MC")
	if dropped.Len() != ft.Len() {
		t.Fatal("length changed")
	}
	jsMC, jsC := slices.Index(FeatureNames, "JS-MC"), slices.Index(FeatureNames, "JS-C")
	for i := 0; i < ft.Len(); i++ {
		if dropped.Features(i)[jsMC] != 0 {
			t.Fatalf("JS-MC not zeroed at %d", i)
		}
		if dropped.Features(i)[jsC] != ft.Features(i)[jsC] {
			t.Fatalf("JS-C changed at %d", i)
		}
	}
	// Original untouched.
	any := false
	for i := 0; i < ft.Len(); i++ {
		if ft.Features(i)[jsMC] != 0 {
			any = true
		}
	}
	if !any {
		t.Error("original table mutated")
	}
	// Unknown feature: identity copy.
	same := ft.DropFeature("nope")
	for i := 0; i < ft.Len(); i++ {
		for j := range ft.Features(i) {
			if same.Features(i)[j] != ft.Features(i)[j] {
				t.Fatal("unknown drop changed features")
			}
		}
	}
}
