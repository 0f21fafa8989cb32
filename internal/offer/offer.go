// Package offer models merchant offers and offer feeds (paper §2, Figure 3).
//
// An offer o = (M, price, image, C, URL, title, {<A1,v1>,...,<An,vn>}) is
// what a merchant submits to the Product Search Engine: terse feed fields
// (title, price, URL) plus an optional offer specification — the attribute-
// value pairs either present in the feed or extracted later from the
// merchant's landing page.
package offer

import (
	"fmt"
	"sort"

	"prodsynth/internal/catalog"
)

// Offer is one merchant offer.
type Offer struct {
	// ID uniquely identifies the offer within a dataset.
	ID string
	// Merchant is the merchant identifier M.
	Merchant string
	// CategoryID is the catalog category assigned to the offer (either
	// present in the feed or produced by the category classifier).
	CategoryID string
	// Title is the short free-text sentence describing the product.
	Title string
	// PriceCents is the advertised price in cents (0 if unknown).
	PriceCents int64
	// URL is the landing page on the merchant site.
	URL string
	// ImageURL is the product image (may be empty).
	ImageURL string
	// Spec is the offer specification: attribute-value pairs in the
	// merchant's own vocabulary. Populated from the feed or by the
	// web-page attribute extraction component.
	Spec catalog.Spec
}

// Clone returns a deep copy of the offer.
func (o Offer) Clone() Offer {
	cp := o
	cp.Spec = o.Spec.Clone()
	return cp
}

// SchemaKey identifies a (merchant, category) pair — what the paper calls
// "the schema of merchant M for category C" (§2). Attribute correspondences
// are scoped to these keys.
type SchemaKey struct {
	Merchant   string
	CategoryID string
}

func (k SchemaKey) String() string {
	return fmt.Sprintf("%s@%s", k.Merchant, k.CategoryID)
}

// Set is an in-memory offer collection with the groupings the offline
// learning phase iterates over: by (merchant, category) and by category.
// It is immutable after construction via NewSet.
type Set struct {
	offers     []Offer
	byMC       map[SchemaKey][]int
	byCategory map[string][]int
}

// NewSet indexes the given offers. The slice is not copied; callers must not
// mutate it afterwards.
func NewSet(offers []Offer) *Set {
	s := &Set{
		offers:     offers,
		byMC:       make(map[SchemaKey][]int),
		byCategory: make(map[string][]int),
	}
	for i, o := range offers {
		k := SchemaKey{Merchant: o.Merchant, CategoryID: o.CategoryID}
		s.byMC[k] = append(s.byMC[k], i)
		s.byCategory[o.CategoryID] = append(s.byCategory[o.CategoryID], i)
	}
	return s
}

// Len returns the number of offers.
func (s *Set) Len() int { return len(s.offers) }

// All returns all offers in input order. The returned slice is shared; do
// not mutate.
func (s *Set) All() []Offer { return s.offers }

// ByCategory returns the offers of one category across all merchants.
func (s *Set) ByCategory(categoryID string) []Offer {
	return s.gather(s.byCategory[categoryID])
}

// ByMerchant returns the offers of one merchant across all categories, in
// input order. It scans the set: no pipeline stage groups by merchant
// alone.
func (s *Set) ByMerchant(merchant string) []Offer {
	var out []Offer
	for _, o := range s.offers {
		if o.Merchant == merchant {
			out = append(out, o)
		}
	}
	return out
}

// SchemaKeys returns every (merchant, category) pair present, sorted.
func (s *Set) SchemaKeys() []SchemaKey {
	out := make([]SchemaKey, 0, len(s.byMC))
	for k := range s.byMC {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Merchant != out[j].Merchant {
			return out[i].Merchant < out[j].Merchant
		}
		return out[i].CategoryID < out[j].CategoryID
	})
	return out
}

// Categories returns the distinct category IDs present, sorted.
func (s *Set) Categories() []string {
	out := make([]string, 0, len(s.byCategory))
	for c := range s.byCategory {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// MerchantAttributes returns the distinct offer-spec attribute names used by
// merchant M in category C — the merchant's "schema" in the paper's abused
// terminology (§2). Sorted for determinism.
func (s *Set) MerchantAttributes(k SchemaKey) []string {
	seen := make(map[string]bool)
	for _, i := range s.byMC[k] {
		for _, av := range s.offers[i].Spec {
			seen[av.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Set) gather(idx []int) []Offer {
	out := make([]Offer, len(idx))
	for j, i := range idx {
		out[j] = s.offers[i]
	}
	return out
}
