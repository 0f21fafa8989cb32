package correspond

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"prodsynth/internal/catalog"
	"prodsynth/internal/distsim"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/text"
)

// FeatureTable holds the candidate tuples and their feature vectors.
type FeatureTable struct {
	// candidates ascend in compareCandidates order: ranking breaks score
	// ties by index and Lookup binary-searches on it.
	candidates []Candidate
	// features holds every vector back to back, len(names) per candidate.
	features []float64
	names    []string
}

// compareCandidates orders candidates by merchant, category, catalog
// attribute, then merchant attribute: the order ComputeFeatures
// enumerates them in.
func compareCandidates(a, b Candidate) int {
	return cmp.Or(
		strings.Compare(a.Key.Merchant, b.Key.Merchant),
		strings.Compare(a.Key.CategoryID, b.Key.CategoryID),
		strings.Compare(a.CatalogAttr, b.CatalogAttr),
		strings.Compare(a.MerchantAttr, b.MerchantAttr),
	)
}

// Candidates returns the candidate tuples in deterministic order: by
// merchant, category, catalog attribute, then merchant attribute.
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
	return slices.BinarySearchFunc(ft.candidates, c, compareCandidates)
}

// DropFeature returns a copy of the table with the named feature zeroed —
// the substrate for drop-one-feature ablations. The underlying candidate
// slice is shared; feature vectors are copied.
func (ft *FeatureTable) DropFeature(name string) *FeatureTable {
	out := &FeatureTable{candidates: ft.candidates, names: ft.names}
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

// addOffer adds the offer's values to every group's offer bags,
// tokenizing each value once: bags are multisets, so which group a token
// reaches first does not change any count.
func addOffer(groups []*groupBags, spec catalog.Spec) {
	for _, av := range spec {
		toks := text.DefaultTokenizer.Tokenize(av.Value)
		for _, g := range groups {
			g.offers.bag(av.Name).Add(toks...)
		}
	}
}

// addProduct adds the product's values to the product bags of every group
// that has not seen it yet, tokenizing each value once, and only if some
// group admits the product.
func addProduct(groups []*groupBags, p catalog.Product) {
	var admit [3]*groupBags // room for one key's three groups
	fresh := admit[:0]
	for _, g := range groups {
		if !g.seenProd[p.ID] {
			g.seenProd[p.ID] = true
			fresh = append(fresh, g)
		}
	}
	if len(fresh) == 0 {
		return
	}
	for _, av := range p.Spec {
		toks := text.DefaultTokenizer.Tokenize(av.Value)
		for _, g := range fresh {
			g.products.bag(av.Name).Add(toks...)
		}
	}
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

	// group returns the key's three groups: merchant+category, category,
	// merchant.
	group := func(key offer.SchemaKey) [3]*groupBags {
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
		return [3]*groupBags{mc, c, m}
	}

	for _, o := range offers.All() {
		key := offer.SchemaKey{Merchant: o.Merchant, CategoryID: o.CategoryID}
		if !opts.UseMatches {
			groups := group(key)
			addOffer(groups[:], o.Spec)
			continue
		}
		mt, ok := matches.ProductFor(o.ID)
		if !ok {
			continue // unmatched offers contribute nothing (§3.1)
		}
		p, ok := store.Product(mt.ProductID)
		if !ok {
			continue
		}
		groups := group(key)
		addOffer(groups[:], o.Spec)
		addProduct(groups[:], p)
	}
	if !opts.UseMatches {
		// Figure 7 baseline: product side = every product of the
		// category, attributed to each group touching that category: the
		// category itself, each of its (merchant, category) pairs, and
		// those merchants, whose product bags so span their categories.
		touching := make(map[string][]*groupBags, len(cBags))
		for cat, g := range cBags {
			touching[cat] = append(touching[cat], g)
		}
		for key, g := range mcBags {
			touching[key.CategoryID] = append(touching[key.CategoryID], g, mBags[key.Merchant])
		}
		for cat, groups := range touching {
			for _, p := range store.ProductsInCategory(cat) {
				addProduct(groups, p)
			}
		}
	}

	// Pass 2: enumerate candidates in deterministic order.
	names := append([]string(nil), FeatureNames...)
	if opts.IncludeNameFeature {
		names = append(names, NameFeature)
	}
	type keyAttrs struct {
		key               offer.SchemaKey
		catalog, merchant []string
	}
	var keys []keyAttrs
	n := 0
	for _, key := range offers.SchemaKeys() {
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
		keys = append(keys, keyAttrs{key, catalogAttrs, merchantAttrs})
		n += len(catalogAttrs) * len(merchantAttrs)
	}
	ft := &FeatureTable{candidates: make([]Candidate, 0, n), names: names}
	for _, k := range keys {
		for _, ap := range k.catalog {
			for _, ao := range k.merchant {
				ft.candidates = append(ft.candidates, Candidate{Key: k.key, CatalogAttr: ap, MerchantAttr: ao})
			}
		}
	}

	// Pass 3: compute features across workers. Every bag's distribution
	// is built once, here, and the workers only read them. A category-level
	// feature depends on (category, Ap, Ao) alone, and a merchant-level one
	// on (merchant, Ap, Ao), so each distinct triple is computed once and
	// copied to its candidates; the merchant+category features are per
	// candidate.
	mcDists, cDists, mDists := distsOf(mcBags), distsOf(cBags), distsOf(mBags)
	cOf, cReps := factorize(ft.candidates, func(k offer.SchemaKey) string { return k.CategoryID })
	mOf, mReps := factorize(ft.candidates, func(k offer.SchemaKey) string { return k.Merchant })
	shared := make([]simPair, len(cReps)+len(mReps))
	pipe.For(len(shared), opts.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < len(cReps) {
				c := ft.candidates[cReps[i]]
				shared[i] = cDists[c.Key.CategoryID].sims(c)
			} else {
				c := ft.candidates[mReps[i-len(cReps)]]
				shared[i] = mDists[c.Key.Merchant].sims(c)
			}
		}
	})
	cSims, mSims := shared[:len(cReps)], shared[len(cReps):]
	width := len(names)
	ft.features = make([]float64, len(ft.candidates)*width)
	pipe.For(len(ft.candidates), opts.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := ft.candidates[i]
			v := ft.features[i*width : (i+1)*width]
			mc := mcDists[c.Key].sims(c)
			cs, ms := cSims[cOf[i]], mSims[mOf[i]]
			v[0], v[1], v[2] = mc.js, cs.js, ms.js
			v[3], v[4], v[5] = mc.jaccard, cs.jaccard, ms.jaccard
			if opts.IncludeNameFeature {
				a := text.NormalizeName(c.CatalogAttr)
				b := text.NormalizeName(c.MerchantAttr)
				v[6] = (distsim.EditSimilarity(a, b) + distsim.TrigramSimilarity(a, b)) / 2
			}
		}
	})
	return ft
}

// factorize maps every candidate to its distinct (group, Ap, Ao) triple,
// where group is part of the candidate's key. It returns each candidate's
// triple and, per triple, the index of the first candidate that has it.
func factorize(cands []Candidate, group func(offer.SchemaKey) string) (of []int32, reps []int) {
	type triple struct{ group, ap, ao string }
	seen := make(map[triple]int32)
	of = make([]int32, len(cands))
	for i, c := range cands {
		t := triple{group(c.Key), c.CatalogAttr, c.MerchantAttr}
		id, ok := seen[t]
		if !ok {
			id = int32(len(reps))
			seen[t] = id
			reps = append(reps, i)
		}
		of[i] = id
	}
	return of, reps
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

// simPair is one group's two similarities for one candidate.
type simPair struct{ js, jaccard float64 }

// sims returns the group's JS and Jaccard similarity between the
// candidate's catalog-attribute and merchant-attribute distributions; a
// missing group has both 0.
func (g *groupDists) sims(c Candidate) simPair {
	if g == nil {
		return simPair{}
	}
	p, q := g.products[c.CatalogAttr], g.offers[c.MerchantAttr]
	return simPair{js: distsim.JSSimilarity(p, q), jaccard: p.Jaccard(q)}
}
