package correspond

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/distsim"
	"prodsynth/internal/extract"
	"prodsynth/internal/match"
	"prodsynth/internal/ml"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
	"prodsynth/internal/text"
)

// The reference implementations below are verbatim copies of the feature,
// training-set and ranking code as it stood before ComputeFeatures
// factorised the category- and merchant-level features and tokenized each
// value once, BuildTrainingSet labeled adjacent runs, and ranking moved to
// candidate indexes. Only names carry a ref prefix, and the table's
// candidate index map, since deleted, is no longer filled in.

// refAttrBags accumulates one bag of words per attribute name.
type refAttrBags map[string]*text.Bag

func (ab refAttrBags) bag(name string) *text.Bag {
	b := ab[name]
	if b == nil {
		b = text.NewBag()
		ab[name] = b
	}
	return b
}

func (ab refAttrBags) addSpec(spec catalog.Spec) {
	for _, av := range spec {
		ab.bag(av.Name).AddValue(av.Value)
	}
}

// refGroupBags holds offer-side and product-side bags for one group.
type refGroupBags struct {
	offers   refAttrBags
	products refAttrBags
	seenProd map[string]bool // product IDs already added (products are sets)
}

func newRefGroupBags() *refGroupBags {
	return &refGroupBags{
		offers:   make(refAttrBags),
		products: make(refAttrBags),
		seenProd: make(map[string]bool),
	}
}

func (g *refGroupBags) addOffer(spec catalog.Spec) { g.offers.addSpec(spec) }

func (g *refGroupBags) addProduct(p catalog.Product) {
	if g.seenProd[p.ID] {
		return
	}
	g.seenProd[p.ID] = true
	g.products.addSpec(p.Spec)
}

func refComputeFeatures(store *catalog.Store, offers *offer.Set, matches *match.MatchSet, opts FeatureOptions) *FeatureTable {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}

	// Pass 1: accumulate bags per grouping.
	mcBags := make(map[offer.SchemaKey]*refGroupBags)
	cBags := make(map[string]*refGroupBags)
	mBags := make(map[string]*refGroupBags)

	group := func(key offer.SchemaKey) (*refGroupBags, *refGroupBags, *refGroupBags) {
		mc := mcBags[key]
		if mc == nil {
			mc = newRefGroupBags()
			mcBags[key] = mc
		}
		c := cBags[key.CategoryID]
		if c == nil {
			c = newRefGroupBags()
			cBags[key.CategoryID] = c
		}
		m := mBags[key.Merchant]
		if m == nil {
			m = newRefGroupBags()
			mBags[key.Merchant] = m
		}
		return mc, c, m
	}

	for _, o := range offers.All() {
		key := offer.SchemaKey{Merchant: o.Merchant, CategoryID: o.CategoryID}
		if opts.UseMatches {
			mt, ok := matches.ProductFor(o.ID)
			if !ok {
				continue // unmatched offers contribute nothing (§3.1)
			}
			p, ok := store.Product(mt.ProductID)
			if !ok {
				continue
			}
			mc, c, m := group(key)
			mc.addOffer(o.Spec)
			c.addOffer(o.Spec)
			m.addOffer(o.Spec)
			mc.addProduct(p)
			c.addProduct(p)
			m.addProduct(p)
		} else {
			mc, c, m := group(key)
			mc.addOffer(o.Spec)
			c.addOffer(o.Spec)
			m.addOffer(o.Spec)
		}
	}
	if !opts.UseMatches {
		// Figure 7 baseline: product side = every product of the
		// category, attributed to each group touching that category.
		for cat, g := range cBags {
			for _, p := range store.ProductsInCategory(cat) {
				g.addProduct(p)
			}
		}
		for key, g := range mcBags {
			for _, p := range store.ProductsInCategory(key.CategoryID) {
				g.addProduct(p)
			}
		}
		// Merchant-level product bags span the merchant's categories.
		for merchantName, g := range mBags {
			seen := make(map[string]bool)
			for _, o := range offers.ByMerchant(merchantName) {
				if seen[o.CategoryID] {
					continue
				}
				seen[o.CategoryID] = true
				for _, p := range store.ProductsInCategory(o.CategoryID) {
					g.addProduct(p)
				}
			}
		}
	}

	// Pass 2: enumerate candidates in deterministic order.
	names := append([]string(nil), FeatureNames...)
	if opts.IncludeNameFeature {
		names = append(names, NameFeature)
	}
	ft := &FeatureTable{names: names}
	keys := offers.SchemaKeys()
	for _, key := range keys {
		cat, ok := store.Category(key.CategoryID)
		if !ok {
			continue
		}
		merchantAttrs := offers.MerchantAttributes(key)
		if len(merchantAttrs) == 0 {
			continue
		}
		catalogAttrs := cat.Schema.Names()
		sort.Strings(catalogAttrs)
		for _, ap := range catalogAttrs {
			for _, ao := range merchantAttrs {
				c := Candidate{Key: key, CatalogAttr: ap, MerchantAttr: ao}
				ft.candidates = append(ft.candidates, c)
			}
		}
	}

	// Pass 3: compute features, sharded across workers. Every bag's
	// distribution is built once, here, and the workers only read them.
	mcDists, cDists, mDists := refDistsOf(mcBags), refDistsOf(cBags), refDistsOf(mBags)
	width := len(names)
	ft.features = make([]float64, len(ft.candidates)*width)
	var wg sync.WaitGroup
	chunk := (len(ft.candidates) + opts.Workers - 1) / opts.Workers
	if chunk == 0 {
		chunk = 1
	}
	for start := 0; start < len(ft.candidates); start += chunk {
		end := start + chunk
		if end > len(ft.candidates) {
			end = len(ft.candidates)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				c := ft.candidates[i]
				v := ft.features[i*width : (i+1)*width]
				mc := mcDists[c.Key]
				cd := cDists[c.Key.CategoryID]
				md := mDists[c.Key.Merchant]
				v[0] = mc.js(c)
				v[1] = cd.js(c)
				v[2] = md.js(c)
				v[3] = mc.jaccard(c)
				v[4] = cd.jaccard(c)
				v[5] = md.jaccard(c)
				if opts.IncludeNameFeature {
					a := text.NormalizeName(c.CatalogAttr)
					b := text.NormalizeName(c.MerchantAttr)
					v[6] = (distsim.EditSimilarity(a, b) + distsim.TrigramSimilarity(a, b)) / 2
				}
			}
		}(start, end)
	}
	wg.Wait()
	return ft
}

// refGroupDists holds one group's value distribution per attribute name. An
// attribute the group never saw maps to the empty distribution.
type refGroupDists struct {
	offers, products map[string]text.Distribution
}

func refDistsOf[K comparable](groups map[K]*refGroupBags) map[K]*refGroupDists {
	out := make(map[K]*refGroupDists, len(groups))
	for k, g := range groups {
		out[k] = &refGroupDists{offers: g.offers.distributions(), products: g.products.distributions()}
	}
	return out
}

func (ab refAttrBags) distributions() map[string]text.Distribution {
	out := make(map[string]text.Distribution, len(ab))
	for name, b := range ab {
		out[name] = b.Distribution()
	}
	return out
}

func (g *refGroupDists) js(c Candidate) float64 {
	if g == nil {
		return 0
	}
	return distsim.JSSimilarity(g.products[c.CatalogAttr], g.offers[c.MerchantAttr])
}

func (g *refGroupDists) jaccard(c Candidate) float64 {
	if g == nil {
		return 0
	}
	return g.products[c.CatalogAttr].Jaccard(g.offers[c.MerchantAttr])
}

func refBuildTrainingSet(ft *FeatureTable) *TrainingSet {
	// First collect, per (key, catalog attribute), whether a name
	// identity candidate exists.
	hasIdentity := make(map[string]bool)
	idKey := func(c Candidate) string {
		return c.Key.Merchant + "\x00" + c.Key.CategoryID + "\x00" + c.CatalogAttr
	}
	for _, c := range ft.Candidates() {
		if c.NameIdentity() {
			hasIdentity[idKey(c)] = true
		}
	}

	ts := &TrainingSet{}
	for i, c := range ft.Candidates() {
		switch {
		case c.NameIdentity():
			ts.Examples = append(ts.Examples, ml.Example{Features: ft.Features(i), Label: 1})
			ts.Indices = append(ts.Indices, i)
			ts.Positives++
		case hasIdentity[idKey(c)]:
			ts.Examples = append(ts.Examples, ml.Example{Features: ft.Features(i), Label: 0})
			ts.Indices = append(ts.Indices, i)
		}
	}
	return ts
}

func refSortScored(s []Scored) {
	slices.SortStableFunc(s, func(a, b Scored) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Or(
			strings.Compare(a.Key.Merchant, b.Key.Merchant),
			strings.Compare(a.Key.CategoryID, b.Key.CategoryID),
			strings.Compare(a.CatalogAttr, b.CatalogAttr),
			strings.Compare(a.MerchantAttr, b.MerchantAttr),
		)
	})
}

// generatedInputs is a small generated marketplace's historical side as
// Learn sees it: specs extracted from the landing pages, and the matcher's
// offer-to-product matches.
func generatedInputs(t *testing.T) (*catalog.Store, *offer.Set, *match.MatchSet) {
	t.Helper()
	ds := synth.Generate(synth.Config{Seed: 4, CategoriesPerDomain: 2, ProductsPerCategory: 25, Merchants: 24})
	offs := make([]offer.Offer, len(ds.HistoricalOffers))
	for i, o := range ds.HistoricalOffers {
		o = o.Clone()
		if page, ok := ds.Pages[o.URL]; ok {
			o.Spec = append(o.Spec, extract.FromHTML(page)...)
		}
		offs[i] = o
	}
	set := offer.NewSet(offs)
	matches := match.Matcher{}.Run(ds.Catalog, set)
	if matches.Len() == 0 {
		t.Fatal("generated marketplace has no matches")
	}
	return ds.Catalog, set, matches
}

// assertAscending checks that candidates strictly ascend in
// compareCandidates order, the order ranking breaks score ties in by
// candidate index.
func assertAscending(t *testing.T, cands []Candidate) {
	t.Helper()
	for i := 1; i < len(cands); i++ {
		if compareCandidates(cands[i-1], cands[i]) >= 0 {
			t.Fatalf("candidate %d %v does not sort after %v", i, cands[i], cands[i-1])
		}
	}
}

// TestComputeFeaturesMatchesReference pins ComputeFeatures and
// BuildTrainingSet to the reference copies bit for bit, on a generated
// marketplace, with and without match restriction and the name feature,
// for one worker and for more workers than CPUs.
func TestComputeFeaturesMatchesReference(t *testing.T) {
	st, offers, matches := generatedInputs(t)
	for _, useMatches := range []bool{true, false} {
		for _, nameFeature := range []bool{false, true} {
			for _, workers := range []int{1, 7} {
				opts := FeatureOptions{UseMatches: useMatches, IncludeNameFeature: nameFeature, Workers: workers}
				t.Run(fmt.Sprintf("matches=%v/name=%v/workers=%d", useMatches, nameFeature, workers), func(t *testing.T) {
					got := ComputeFeatures(st, offers, matches, opts)
					want := refComputeFeatures(st, offers, matches, opts)
					if !slices.Equal(got.Names(), want.Names()) {
						t.Fatalf("names = %v, reference %v", got.Names(), want.Names())
					}
					if !slices.Equal(got.Candidates(), want.Candidates()) {
						t.Fatalf("candidates differ from the reference (%d vs %d)", got.Len(), want.Len())
					}
					if got.Len() < 1000 {
						t.Fatalf("only %d candidates; the marketplace is too small to compare", got.Len())
					}
					assertAscending(t, got.Candidates())
					for i := 0; i < got.Len(); i++ {
						assertBits(t, got.Features(i), want.Features(i), fmt.Sprintf("candidate %d %v", i, got.Candidates()[i]))
					}

					ts, ref := BuildTrainingSet(got), refBuildTrainingSet(want)
					if ts.Positives != ref.Positives || !slices.Equal(ts.Indices, ref.Indices) {
						t.Fatalf("training set: %d positives over %d examples, reference %d over %d",
							ts.Positives, len(ts.Indices), ref.Positives, len(ref.Indices))
					}
					for k := range ts.Examples {
						if ts.Examples[k].Label != ref.Examples[k].Label {
							t.Fatalf("example %d label = %d, reference %d", k, ts.Examples[k].Label, ref.Examples[k].Label)
						}
						assertBits(t, ts.Examples[k].Features, ref.Examples[k].Features, fmt.Sprintf("example %d", k))
					}
				})
			}
		}
	}
}

func assertBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s feature %d = %v, reference %v", what, j, got[j], want[j])
		}
	}
}

// TestRankingMatchesReference: ranking by (score, candidate index) orders
// exactly as the reference's stable sort on the string comparator, for the
// classifier's scores and for Jaccard-MC, whose scores mostly tie at 0.
func TestRankingMatchesReference(t *testing.T) {
	st, offers, matches := generatedInputs(t)
	ft := ComputeFeatures(st, offers, matches, FeatureOptions{UseMatches: true})
	reference := func(score func(i int) float64) []Scored {
		out := make([]Scored, ft.Len())
		for i := range out {
			out[i] = Scored{Candidate: ft.Candidates()[i], Score: score(i)}
		}
		refSortScored(out)
		return out
	}
	same := func(t *testing.T, got, want []Scored) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("ranked %d candidates, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Candidate != want[i].Candidate || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("rank %d = %v %v, reference %v %v", i, got[i].Candidate, got[i].Score, want[i].Candidate, want[i].Score)
			}
		}
	}

	col := slices.Index(FeatureNames, "Jaccard-MC")
	got, err := ScoreSingleFeature(ft, "Jaccard-MC")
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, sc := range got {
		if sc.Score == 0 {
			zeros++
		}
	}
	if 2*zeros < len(got) {
		t.Fatalf("only %d of %d Jaccard-MC scores tie at 0; the ties this test is for are missing", zeros, len(got))
	}
	same(t, got, reference(func(i int) float64 { return ft.Features(i)[col] }))

	model, err := Train(ft, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same(t, model.ScoreAll(ft), reference(func(i int) float64 { return model.LR.Prob(ft.Features(i)) }))
}
