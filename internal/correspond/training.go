package correspond

import (
	"slices"

	"prodsynth/internal/ml"
)

// TrainingSet is the automatically labeled training data of §3.2.
type TrainingSet struct {
	Examples []ml.Example
	// Indices maps each example back to its candidate index in the
	// feature table (for diagnostics).
	Indices []int
	// Positives counts label-1 examples.
	Positives int
}

// BuildTrainingSet constructs the training set from name-identity candidate
// tuples, with no manual labeling (§3.2):
//
//   - every name-identity candidate <A, A, M, C> is a positive example;
//   - every candidate <A, B, M, C> with A ≠ B for which the name identity
//     <A, A, M, C> also exists is a negative example (a merchant uses
//     exactly one name for a catalog attribute);
//   - all other candidates are unlabeled and excluded.
//
// Candidates of one (merchant, category, catalog attribute) are adjacent in
// the table, so each such run is labeled whole, in candidate order.
func BuildTrainingSet(ft *FeatureTable) *TrainingSet {
	ts := &TrainingSet{}
	cands := ft.Candidates()
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && cands[hi].Key == cands[lo].Key && cands[hi].CatalogAttr == cands[lo].CatalogAttr {
			hi++
		}
		if slices.ContainsFunc(cands[lo:hi], Candidate.NameIdentity) {
			for i := lo; i < hi; i++ {
				label := 0
				if cands[i].NameIdentity() {
					label = 1
					ts.Positives++
				}
				ts.Examples = append(ts.Examples, ml.Example{Features: ft.Features(i), Label: label})
				ts.Indices = append(ts.Indices, i)
			}
		}
		lo = hi
	}
	return ts
}
