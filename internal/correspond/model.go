package correspond

import (
	"cmp"
	"fmt"
	"slices"

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

// TrainOptions is empty: the classifier's fit has no settings. It stays
// only because cmd/bench, the frozen benchmark harness, passes TrainOptions{}.
type TrainOptions struct{}

// Train builds the training set from the feature table and fits the
// class-weighted logistic regression classifier (ml.TrainLogistic).
func Train(ft *FeatureTable, _ TrainOptions) (*Model, error) {
	ts := BuildTrainingSet(ft)
	if len(ts.Examples) == 0 {
		return nil, fmt.Errorf("correspond: no name-identity candidates to train on: %w", ml.ErrNoTrainingData)
	}
	lr, err := ml.TrainLogistic(ts.Examples)
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
	scores := make([]float64, ft.Len())
	for i := range scores {
		scores[i] = m.LR.Prob(ft.Features(i))
	}
	return ranked(ft, scores)
}

// ScoreSingleFeature scores candidates by one raw feature (the Figure 6
// baselines JS-MC and Jaccard-MC), no classifier involved.
func ScoreSingleFeature(ft *FeatureTable, featureName string) ([]Scored, error) {
	col := slices.Index(FeatureNames, featureName)
	if col < 0 {
		return nil, fmt.Errorf("correspond: unknown feature %q", featureName)
	}
	scores := make([]float64, ft.Len())
	for i := range scores {
		scores[i] = ft.Features(i)[col]
	}
	return ranked(ft, scores), nil
}

// ranked pairs each candidate with its score, best first. The table's
// candidates ascend in compareCandidates order, so breaking score ties by
// candidate index breaks them in that order without comparing a string.
func ranked(ft *FeatureTable, scores []float64) []Scored {
	perm := make([]int32, len(scores))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if sa, sb := scores[a], scores[b]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	out := make([]Scored, len(perm))
	for k, i := range perm {
		out[k] = Scored{Candidate: ft.candidates[i], Score: scores[i]}
	}
	return out
}
