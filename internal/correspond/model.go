package correspond

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"prodsynth/internal/ml"
)

// Model is the trained attribute-correspondence classifier.
type Model struct {
	LR *ml.Logistic
	// TrainingSize and TrainingPositives record the §5.1-style statistics
	// of the automatically built training set.
	TrainingSize      int
	TrainingPositives int
}

// TrainOptions configures classifier training.
type TrainOptions struct {
	// Logistic overrides the SGD configuration; zero value uses defaults
	// with class weighting on (the auto-labeled set is imbalanced).
	Logistic ml.LogisticConfig
}

// Train builds the training set from the feature table and fits the
// logistic regression classifier.
func Train(ft *FeatureTable, opts TrainOptions) (*Model, error) {
	ts := BuildTrainingSet(ft)
	if len(ts.Examples) == 0 {
		return nil, fmt.Errorf("correspond: no name-identity candidates to train on: %w", ml.ErrNoTrainingData)
	}
	cfg := opts.Logistic
	if !cfg.ClassWeighting {
		cfg.ClassWeighting = true
	}
	lr, err := ml.TrainLogistic(ts.Examples, cfg)
	if err != nil {
		return nil, fmt.Errorf("correspond: training classifier: %w", err)
	}
	return &Model{
		LR:                lr,
		TrainingSize:      len(ts.Examples),
		TrainingPositives: ts.Positives,
	}, nil
}

// ScoreAll scores every candidate in the table with the classifier,
// returning results sorted by descending score (ties broken by candidate
// order for determinism).
func (m *Model) ScoreAll(ft *FeatureTable) []Scored {
	out := make([]Scored, ft.Len())
	for i := 0; i < ft.Len(); i++ {
		out[i] = Scored{
			Candidate: ft.Candidates()[i],
			Score:     m.LR.Prob(ft.Features(i)),
		}
	}
	sortScored(out)
	return out
}

// ScoreSingleFeature scores candidates by one raw feature (the Figure 6
// baselines JS-MC and Jaccard-MC), no classifier involved.
func ScoreSingleFeature(ft *FeatureTable, featureName string) ([]Scored, error) {
	col := -1
	for j, n := range FeatureNames {
		if n == featureName {
			col = j
			break
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("correspond: unknown feature %q", featureName)
	}
	out := make([]Scored, ft.Len())
	for i := 0; i < ft.Len(); i++ {
		out[i] = Scored{
			Candidate: ft.Candidates()[i],
			Score:     ft.Features(i)[col],
		}
	}
	sortScored(out)
	return out, nil
}

func sortScored(s []Scored) {
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
