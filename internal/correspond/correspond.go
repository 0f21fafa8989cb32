// Package correspond implements the Attribute Correspondence Creation
// component — the paper's main contribution (§3). It:
//
//  1. generates candidate tuples <Ap, Ao, M, C> pairing catalog attributes
//     with merchant offer attributes,
//  2. computes six distributional-similarity features per candidate
//     (Jensen-Shannon and Jaccard at merchant+category, category, and
//     merchant groupings — Table 1), restricted to historical
//     offer-to-product matches (§3.1),
//  3. constructs a training set automatically from name-identity candidates
//     (§3.2, no manual labels), and
//  4. fits a class-weighted logistic regression classifier by maximum
//     likelihood (ml.TrainLogistic: Newton/IRLS over the distinct training
//     rows) and scores every candidate.
//
// The scored output feeds the Schema Reconciliation component.
package correspond

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"prodsynth/internal/offer"
)

// Candidate is one <Ap, Ao, M, C> tuple: catalog attribute Ap may correspond
// to attribute Ao of merchant M in category C (Definition 1).
type Candidate struct {
	Key          offer.SchemaKey
	CatalogAttr  string // Ap
	MerchantAttr string // Ao
}

// NameIdentity reports whether the candidate uses the exact same name on
// both sides.
func (c Candidate) NameIdentity() bool { return c.CatalogAttr == c.MerchantAttr }

func (c Candidate) String() string {
	return fmt.Sprintf("<%s, %s, %s>", c.CatalogAttr, c.MerchantAttr, c.Key)
}

// FeatureNames lists the classifier features in vector order (paper Table 1).
var FeatureNames = []string{
	"JS-MC", "JS-C", "JS-M",
	"Jaccard-MC", "Jaccard-C", "Jaccard-M",
}

// Scored is a candidate with its classifier score.
type Scored struct {
	Candidate
	// Score is the classifier probability (or raw measure for
	// single-feature baselines) that the candidate is a valid
	// correspondence. Higher is better.
	Score float64
}

// Set is the selected attribute correspondences, indexed for the Schema
// Reconciliation component: per (merchant, category), each merchant
// attribute maps to at most one catalog attribute.
type Set struct {
	byKey map[offer.SchemaKey]map[string]Scored
}

// NewSet builds an empty set.
func NewSet() *Set {
	return &Set{byKey: make(map[offer.SchemaKey]map[string]Scored)}
}

// Add inserts a scored correspondence, keeping the highest-scoring catalog
// attribute per merchant attribute (ties keep the first inserted).
func (s *Set) Add(sc Scored) {
	m := s.byKey[sc.Key]
	if m == nil {
		m = make(map[string]Scored)
		s.byKey[sc.Key] = m
	}
	if cur, ok := m[sc.MerchantAttr]; ok && cur.Score >= sc.Score {
		return
	}
	m[sc.MerchantAttr] = sc
}

// Lookup returns the catalog attribute for a merchant attribute, if any.
func (s *Set) Lookup(key offer.SchemaKey, merchantAttr string) (string, bool) {
	m := s.byKey[key]
	if m == nil {
		return "", false
	}
	sc, ok := m[merchantAttr]
	if !ok {
		return "", false
	}
	return sc.CatalogAttr, true
}

// Len returns the number of correspondences in the set.
func (s *Set) Len() int {
	n := 0
	for _, m := range s.byKey {
		n += len(m)
	}
	return n
}

// All returns every correspondence, ordered by merchant, category, then
// merchant attribute (unique within a set).
func (s *Set) All() []Scored {
	out := make([]Scored, 0, s.Len())
	for _, m := range s.byKey {
		for _, sc := range m {
			out = append(out, sc)
		}
	}
	slices.SortFunc(out, func(a, b Scored) int {
		return cmp.Or(
			strings.Compare(a.Key.Merchant, b.Key.Merchant),
			strings.Compare(a.Key.CategoryID, b.Key.CategoryID),
			strings.Compare(a.MerchantAttr, b.MerchantAttr),
		)
	})
	return out
}

// Select builds a Set from scored candidates: candidates with score >=
// threshold are kept; additionally every name-identity candidate is kept
// regardless of score (§3.2 assumes identities are correspondences).
// Per merchant attribute, the highest-scoring catalog attribute wins.
func Select(scored []Scored, threshold float64) *Set {
	s := NewSet()
	for _, sc := range scored {
		if sc.Score >= threshold || sc.NameIdentity() {
			s.Add(sc)
		}
	}
	return s
}
