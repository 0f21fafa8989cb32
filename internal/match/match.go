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
	"sync"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
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
	matches []Match
	byOffer map[string]int
}

// NewMatchSet indexes the given matches. Later matches for an offer already
// matched are dropped (an offer matches at most one product, §2).
func NewMatchSet(matches []Match) *MatchSet {
	ms := &MatchSet{byOffer: make(map[string]int)}
	for _, m := range matches {
		ms.add(m)
	}
	return ms
}

func (ms *MatchSet) add(m Match) {
	if _, dup := ms.byOffer[m.OfferID]; dup {
		return
	}
	ms.byOffer[m.OfferID] = len(ms.matches)
	ms.matches = append(ms.matches, m)
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

// Matcher finds historical offer-to-product matches.
//
// Per-category matching state (the inverted TitleIndex) comes from a
// shared Registry: it is built exactly once per category regardless of
// Workers, stays warm across calls against the same catalog, and follows
// catalog growth with incremental posting-list updates instead of
// rebuilds.
type Matcher struct {
	// Workers is Run's parallelism (default: 4). A Bound matches one
	// offer on the caller's goroutine.
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

// titleThreshold is the minimum IDF-weighted containment score for a
// title match. Identifier matches are always accepted.
const titleThreshold = 0.6

// Run matches every offer against the catalog and returns the match set:
// one Bound per call, Match per offer, in offer order. Output is
// identical for every Workers value.
func (m Matcher) Run(store *catalog.Store, offers *offer.Set) *MatchSet {
	workers := m.Workers
	if workers <= 0 {
		workers = 4
	}

	all := offers.All()
	results := make([]Match, len(all))
	found := make([]bool, len(all))
	b := m.Bind(store)

	pipe.For(len(all), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], found[i] = b.Match(all[i])
		}
	})

	kept := make([]Match, 0, len(all))
	for i := range results {
		if found[i] {
			kept = append(kept, results[i])
		}
	}
	return NewMatchSet(kept)
}

// Bound is a Matcher bound to one catalog store for one run. It takes
// each category's title index from the registry once, on the category's
// first offer, and keeps it for the rest of the run: offers in many
// interleaved categories then cost one registry lookup per category, not
// one per offer, and a bounded registry (RegistryOptions.MaxEntries)
// cannot evict an index mid-run and rebuild it for the next offer. A run
// therefore sees each category's products as they stood at its first
// offer. Safe for concurrent use.
type Bound struct {
	m     Matcher
	store *catalog.Store

	mu      sync.Mutex
	indexes map[string]*boundIndex
}

// boundIndex is one category's index within a Bound. The Bound's lock
// only guards the map; the registry lookup runs under the entry's own
// Once, so cold builds of different categories still run in parallel.
type boundIndex struct {
	once sync.Once
	idx  *TitleIndex
}

// Bind starts a run of matches against store.
func (m Matcher) Bind(store *catalog.Store) *Bound {
	return &Bound{m: m, store: store, indexes: make(map[string]*boundIndex)}
}

// Match matches one offer against the catalog: by universal identifier
// (UPC, then MPN), else by title at or above titleThreshold. Offers match
// only within their assigned category.
func (b *Bound) Match(o offer.Offer) (Match, bool) {
	// 1. Identifier match: UPC first, then MPN, looked up in the key index.
	for _, keyAttr := range []string{catalog.AttrUPC, catalog.AttrMPN} {
		if v, ok := o.Spec.Get(keyAttr); ok && v != "" {
			if p, ok := b.store.ProductByKey(v); ok && p.CategoryID == o.CategoryID {
				return Match{OfferID: o.ID, ProductID: p.ID, Source: "upc", Score: 1}, true
			}
		}
	}

	// 2. Title match: IDF-weighted containment via the shared inverted
	// index.
	pid, score := b.titleIndex(o.CategoryID).Match(o.Title)
	if pid != "" && score >= titleThreshold {
		return Match{OfferID: o.ID, ProductID: pid, Source: "title", Score: score}, true
	}
	return Match{}, false
}

// titleIndex returns the category's index, taking it from the registry
// on the run's first use of the category.
func (b *Bound) titleIndex(category string) *TitleIndex {
	b.mu.Lock()
	bi := b.indexes[category]
	if bi == nil {
		bi = new(boundIndex)
		b.indexes[category] = bi
	}
	b.mu.Unlock()
	bi.once.Do(func() { bi.idx = b.m.registry().TitleIndex(b.store, category) })
	return bi.idx
}
