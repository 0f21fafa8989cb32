package correspond

import (
	"slices"
	"sort"
	"sync"

	"prodsynth/internal/catalog"
	"prodsynth/internal/distsim"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/text"
)

// FeatureTable holds the candidate tuples and their feature vectors.
type FeatureTable struct {
	candidates []Candidate
	// features holds every vector back to back, len(names) per candidate.
	features []float64
	index    map[Candidate]int
	names    []string
}

// Candidates returns the candidate tuples in deterministic order.
func (ft *FeatureTable) Candidates() []Candidate { return ft.candidates }

// Features returns the feature vector of candidate i (order: Names). The
// slice is a view into the table and must not be modified.
func (ft *FeatureTable) Features(i int) []float64 {
	w := len(ft.names)
	return ft.features[i*w : (i+1)*w : (i+1)*w]
}

// Len returns the number of candidates.
func (ft *FeatureTable) Len() int { return len(ft.candidates) }

// Names returns the feature names in vector order.
func (ft *FeatureTable) Names() []string { return ft.names }

// Lookup returns the index of a candidate.
func (ft *FeatureTable) Lookup(c Candidate) (int, bool) {
	i, ok := ft.index[c]
	return i, ok
}

// Feature returns one named feature of candidate i.
func (ft *FeatureTable) Feature(i int, name string) float64 {
	if j := slices.Index(ft.names, name); j >= 0 {
		return ft.Features(i)[j]
	}
	return 0
}

// DropFeature returns a copy of the table with the named feature zeroed —
// the substrate for drop-one-feature ablations. The underlying candidate
// slice is shared; feature vectors are copied.
func (ft *FeatureTable) DropFeature(name string) *FeatureTable {
	out := &FeatureTable{candidates: ft.candidates, index: ft.index, names: ft.names}
	out.features = slices.Clone(ft.features)
	if col := slices.Index(ft.names, name); col >= 0 {
		for i := col; i < len(out.features); i += len(ft.names) {
			out.features[i] = 0
		}
	}
	return out
}

// NameFeature is the optional 7th feature: lexical similarity between the
// attribute names themselves (the paper's §7 future work, "integrate other
// matchers, notably name matchers"). See FeatureOptions.IncludeNameFeature
// for why it is off by default.
const NameFeature = "NameSim"

// FeatureOptions configures feature computation.
type FeatureOptions struct {
	// UseMatches restricts value distributions to historical
	// offer-to-product matches (the paper's approach). When false, the
	// Figure 7 baseline is computed instead: distributions over ALL
	// products of the category and ALL offers, ignoring match knowledge.
	UseMatches bool
	// IncludeNameFeature adds a lexical name-similarity feature (average
	// of normalized edit similarity and trigram similarity). CAUTION:
	// under the automatic training-set construction of §3.2 the positive
	// examples are exactly the name-identity candidates, so this feature
	// equals 1 on every positive — it is perfectly correlated with the
	// auto-label and the classifier degenerates into a name matcher.
	// Exposed for the ablation experiment that demonstrates this.
	IncludeNameFeature bool
	// Workers is the parallelism for feature computation (default 4).
	Workers int
}

// attrBags accumulates one bag of words per attribute name.
type attrBags map[string]*text.Bag

func (ab attrBags) bag(name string) *text.Bag {
	b := ab[name]
	if b == nil {
		b = text.NewBag()
		ab[name] = b
	}
	return b
}

func (ab attrBags) addSpec(spec catalog.Spec) {
	for _, av := range spec {
		ab.bag(av.Name).AddValue(av.Value)
	}
}

// groupBags holds offer-side and product-side bags for one group.
type groupBags struct {
	offers   attrBags
	products attrBags
	seenProd map[string]bool // product IDs already added (products are sets)
}

func newGroupBags() *groupBags {
	return &groupBags{
		offers:   make(attrBags),
		products: make(attrBags),
		seenProd: make(map[string]bool),
	}
}

func (g *groupBags) addOffer(spec catalog.Spec) { g.offers.addSpec(spec) }

func (g *groupBags) addProduct(p catalog.Product) {
	if g.seenProd[p.ID] {
		return
	}
	g.seenProd[p.ID] = true
	g.products.addSpec(p.Spec)
}

// ComputeFeatures builds the candidate set and its feature vectors from
// historical offers (with extracted specs), the catalog, and the historical
// matches. Candidates pair every catalog schema attribute of category C
// with every attribute observed in offers of merchant M in C (§3.1).
func ComputeFeatures(store *catalog.Store, offers *offer.Set, matches *match.MatchSet, opts FeatureOptions) *FeatureTable {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}

	// Pass 1: accumulate bags per grouping.
	mcBags := make(map[offer.SchemaKey]*groupBags)
	cBags := make(map[string]*groupBags)
	mBags := make(map[string]*groupBags)

	group := func(key offer.SchemaKey) (*groupBags, *groupBags, *groupBags) {
		mc := mcBags[key]
		if mc == nil {
			mc = newGroupBags()
			mcBags[key] = mc
		}
		c := cBags[key.CategoryID]
		if c == nil {
			c = newGroupBags()
			cBags[key.CategoryID] = c
		}
		m := mBags[key.Merchant]
		if m == nil {
			m = newGroupBags()
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
	ft := &FeatureTable{index: make(map[Candidate]int), names: names}
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
				ft.index[c] = len(ft.candidates)
				ft.candidates = append(ft.candidates, c)
			}
		}
	}

	// Pass 3: compute features, sharded across workers. Every bag's
	// distribution is built once, here, and the workers only read them.
	mcDists, cDists, mDists := distsOf(mcBags), distsOf(cBags), distsOf(mBags)
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

// groupDists holds one group's value distribution per attribute name. An
// attribute the group never saw maps to the empty distribution.
type groupDists struct {
	offers, products map[string]text.Distribution
}

func distsOf[K comparable](groups map[K]*groupBags) map[K]*groupDists {
	out := make(map[K]*groupDists, len(groups))
	for k, g := range groups {
		out[k] = &groupDists{offers: g.offers.distributions(), products: g.products.distributions()}
	}
	return out
}

func (ab attrBags) distributions() map[string]text.Distribution {
	out := make(map[string]text.Distribution, len(ab))
	for name, b := range ab {
		out[name] = b.Distribution()
	}
	return out
}

func (g *groupDists) js(c Candidate) float64 {
	if g == nil {
		return 0
	}
	return distsim.JSSimilarity(g.products[c.CatalogAttr], g.offers[c.MerchantAttr])
}

func (g *groupDists) jaccard(c Candidate) float64 {
	if g == nil {
		return 0
	}
	return g.products[c.CatalogAttr].Jaccard(g.offers[c.MerchantAttr])
}
