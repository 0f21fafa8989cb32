// Package match produces historical offer-to-product associations —
// the instance-level matches that the offline learning phase of the paper
// exploits (§3.1: "historical offer-to-product matches").
//
// As in production systems, matches come from two sources here:
//
//  1. Universal identifiers: an offer whose spec carries a UPC (or MPN)
//     equal to a catalog product's key matches that product exactly.
//  2. Title matching: a fallback that compares the offer title with the
//     product's identifying attributes using IDF-weighted token
//     containment; only matches above a confidence threshold are kept.
//
// The output is a MatchSet, the input to feature computation.
package match

import (
	"sort"
	"sync"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

// Match associates one offer with one catalog product.
type Match struct {
	OfferID   string
	ProductID string
	// Source records how the match was obtained ("upc", "title").
	Source string
	// Score is the matcher confidence in [0,1]; 1 for identifier matches.
	Score float64
}

// MatchSet is an indexed collection of offer-product matches.
type MatchSet struct {
	matches   []Match
	byOffer   map[string]int
	byProduct map[string][]int
}

// NewMatchSet indexes the given matches. Later matches for an offer already
// matched are dropped (an offer matches at most one product, §2).
func NewMatchSet(matches []Match) *MatchSet {
	ms := &MatchSet{
		byOffer:   make(map[string]int),
		byProduct: make(map[string][]int),
	}
	for _, m := range matches {
		ms.add(m)
	}
	return ms
}

func (ms *MatchSet) add(m Match) {
	if _, dup := ms.byOffer[m.OfferID]; dup {
		return
	}
	idx := len(ms.matches)
	ms.matches = append(ms.matches, m)
	ms.byOffer[m.OfferID] = idx
	ms.byProduct[m.ProductID] = append(ms.byProduct[m.ProductID], idx)
}

// Len returns the number of matches.
func (ms *MatchSet) Len() int { return len(ms.matches) }

// All returns the matches in insertion order (shared slice; do not mutate).
func (ms *MatchSet) All() []Match { return ms.matches }

// ProductFor returns the product matched to the given offer.
func (ms *MatchSet) ProductFor(offerID string) (Match, bool) {
	i, ok := ms.byOffer[offerID]
	if !ok {
		return Match{}, false
	}
	return ms.matches[i], true
}

// OffersFor returns the offer IDs matched to a product, sorted.
func (ms *MatchSet) OffersFor(productID string) []string {
	idx := ms.byProduct[productID]
	out := make([]string, len(idx))
	for j, i := range idx {
		out[j] = ms.matches[i].OfferID
	}
	sort.Strings(out)
	return out
}

// Matcher finds historical offer-to-product matches.
//
// Per-category matching state (the inverted TitleIndex) comes from a
// shared Registry: it is built exactly once per category regardless of
// Workers, stays warm across Run calls against the same catalog, and
// follows catalog growth with incremental posting-list updates instead of
// rebuilds.
type Matcher struct {
	// TitleThreshold is the minimum token-overlap score for a title match
	// (default 0.6). Identifier matches are always accepted.
	TitleThreshold float64
	// DisableTitleMatching restricts matching to universal identifiers.
	DisableTitleMatching bool
	// Workers is the parallelism for title matching (default: 4).
	Workers int
	// Registry caches per-category matching state across runs. Nil means
	// DefaultRegistry, the process-wide cache.
	Registry *Registry
}

func (m Matcher) registry() *Registry {
	if m.Registry != nil {
		return m.Registry
	}
	return DefaultRegistry
}

// Run matches every offer against the catalog and returns the match set.
// Offers match only within their assigned category. Output is identical
// for every Workers value.
func (m Matcher) Run(store *catalog.Store, offers *offer.Set) *MatchSet {
	threshold := m.TitleThreshold
	if threshold == 0 {
		threshold = 0.6
	}
	workers := m.Workers
	if workers <= 0 {
		workers = 4
	}

	all := offers.All()
	results := make([]Match, len(all))
	found := make([]bool, len(all))

	var wg sync.WaitGroup
	chunk := (len(all) + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	for start := 0; start < len(all); start += chunk {
		end := start + chunk
		if end > len(all) {
			end = len(all)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Resolve registry entries once per category per goroutine:
			// the shared registry takes a shard mutex per lookup, which
			// is fine per category but not per offer.
			local := make(map[string]*TitleIndex)
			for i := lo; i < hi; i++ {
				o := all[i]
				if mt, ok := m.matchOne(store, o, local, threshold); ok {
					results[i] = mt
					found[i] = true
				}
			}
		}(start, end)
	}
	wg.Wait()

	kept := make([]Match, 0, len(all))
	for i := range results {
		if found[i] {
			kept = append(kept, results[i])
		}
	}
	return NewMatchSet(kept)
}

func (m Matcher) matchOne(store *catalog.Store, o offer.Offer, local map[string]*TitleIndex, threshold float64) (Match, bool) {
	// 1. Identifier match: UPC first, then MPN, looked up in the key index.
	for _, keyAttr := range []string{catalog.AttrUPC, catalog.AttrMPN} {
		if v, ok := o.Spec.Get(keyAttr); ok && v != "" {
			if p, ok := store.ProductByKey(v); ok && p.CategoryID == o.CategoryID {
				return Match{OfferID: o.ID, ProductID: p.ID, Source: "upc", Score: 1}, true
			}
		}
	}
	if m.DisableTitleMatching {
		return Match{}, false
	}

	// 2. Title match: IDF-weighted containment via the shared inverted
	// index.
	idx := local[o.CategoryID]
	if idx == nil {
		idx = m.registry().TitleIndex(store, o.CategoryID)
		local[o.CategoryID] = idx
	}
	pid, score := idx.Match(o.Title)
	if pid != "" && score >= threshold {
		return Match{OfferID: o.ID, ProductID: pid, Source: "title", Score: score}, true
	}
	return Match{}, false
}
