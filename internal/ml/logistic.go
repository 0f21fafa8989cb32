// Package ml provides the learning substrate the paper relies on: binary
// logistic regression (used by the Attribute Correspondence classifier, §3.2,
// citing Hosmer & Lemeshow) and multi-class Naive Bayes (used by the title
// category classifier of §2 and the LSD baseline of Appendix C), plus the
// usual evaluation metrics.
//
// Everything is implemented on dense []float64 feature vectors with no
// external dependencies. Training is deterministic given the same inputs.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Example is one labeled training instance.
type Example struct {
	Features []float64
	// Label is 1 for positive, 0 for negative.
	Label int
}

// LogisticConfig controls training of the logistic regression model.
type LogisticConfig struct {
	// Epochs is the number of passes over the training set (default 200).
	Epochs int
	// LearningRate is the SGD step size (default 0.1).
	LearningRate float64
	// L2 is the L2 regularization strength (default 0: no regularization,
	// which is what the shipped classifier trains with).
	L2 float64
	// Seed seeds the shuffling of examples between epochs.
	Seed int64
	// ClassWeighting, when true, up-weights the minority class so that
	// both classes contribute equal total gradient mass. The automatically
	// constructed training set of §3.2 is imbalanced (16,213 positives of
	// 76,635 examples in the paper), so this defaults to on in the
	// pipeline configuration.
	ClassWeighting bool
}

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
	return c
}

// Logistic is a trained binary logistic regression model.
type Logistic struct {
	// Weights has one coefficient per feature.
	Weights []float64
	// Bias is the intercept term.
	Bias float64
}

// ErrNoTrainingData is returned when the training set is empty or
// single-class.
var ErrNoTrainingData = errors.New("ml: training set empty or single-class")

// TrainLogistic fits a logistic regression model with SGD.
func TrainLogistic(examples []Example, cfg LogisticConfig) (*Logistic, error) {
	cfg = cfg.withDefaults()
	if len(examples) == 0 {
		return nil, ErrNoTrainingData
	}
	dim := len(examples[0].Features)
	pos, neg := 0, 0
	for _, ex := range examples {
		if len(ex.Features) != dim {
			return nil, fmt.Errorf("ml: inconsistent feature dimension: %d vs %d", len(ex.Features), dim)
		}
		if ex.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("%w: %d positive, %d negative", ErrNoTrainingData, pos, neg)
	}

	wPos, wNeg := 1.0, 1.0
	if cfg.ClassWeighting {
		// Equalize total class mass: weight_c = N / (2 * N_c).
		n := float64(len(examples))
		wPos = n / (2 * float64(pos))
		wNeg = n / (2 * float64(neg))
	}

	// One row-major slab, a row per example: its features, then its label,
	// then its class weight.
	stride := dim + 2
	slab := make([]float64, len(examples)*stride)
	for i, ex := range examples {
		row := slab[i*stride : (i+1)*stride]
		copy(row, ex.Features)
		row[dim] = float64(ex.Label)
		row[dim+1] = wNeg
		if ex.Label == 1 {
			row[dim+1] = wPos
		}
	}

	// The epochs' visit orders depend only on the seed, so one helper
	// goroutine shuffles its own order an epoch ahead of the updates and
	// hands each epoch's order over in one of two recycled buffers.
	ready := make(chan []int, 1)
	free := make(chan []int, 2) // holds both buffers, so returning one never blocks
	free <- make([]int, len(examples))
	free <- make([]int, len(examples))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.Seed))
		order := make([]int, len(examples))
		for i := range order {
			order[i] = i
		}
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			buf := <-free
			copy(buf, order)
			ready <- buf
		}
	}()

	// Each step must keep Prob's and the update's floating-point operations
	// in this order: TestSlabSGDBitIdentical pins the weights bit for bit
	// to a per-example loop over model.Prob.
	weights := make([]float64, dim)
	var bias float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := <-ready
		// Decay the step size mildly for stable convergence.
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		lrL2 := lr * cfg.L2
		for _, idx := range order {
			row := slab[idx*stride : (idx+1)*stride]
			x := row[:dim]
			z := bias
			for j, w := range weights {
				z += w * x[j]
			}
			g := lr * row[dim+1] * (sigmoid(z) - row[dim])
			for j, xj := range x {
				weights[j] -= g*xj + lrL2*weights[j]
			}
			bias -= g
		}
		free <- order
	}
	wg.Wait()
	return &Logistic{Weights: weights, Bias: bias}, nil
}

// Prob returns P(label=1 | features).
func (m *Logistic) Prob(features []float64) float64 {
	z := m.Bias
	for i, w := range m.Weights {
		if i < len(features) {
			z += w * features[i]
		}
	}
	return sigmoid(z)
}

// Predict returns 1 if Prob >= threshold.
func (m *Logistic) Predict(features []float64, threshold float64) int {
	if m.Prob(features) >= threshold {
		return 1
	}
	return 0
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Metrics summarizes binary classification quality.
type Metrics struct {
	TP, FP, TN, FN int
}

// Evaluate scores a model over a labeled set at the given threshold.
func Evaluate(m *Logistic, examples []Example, threshold float64) Metrics {
	var out Metrics
	for _, ex := range examples {
		pred := m.Predict(ex.Features, threshold)
		switch {
		case pred == 1 && ex.Label == 1:
			out.TP++
		case pred == 1 && ex.Label == 0:
			out.FP++
		case pred == 0 && ex.Label == 0:
			out.TN++
		default:
			out.FN++
		}
	}
	return out
}

// Precision returns TP / (TP+FP), or 0 when nothing was predicted positive.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP / (TP+FN), or 0 when there are no positives.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN) / total.
func (m Metrics) Accuracy() float64 {
	n := m.TP + m.FP + m.TN + m.FN
	if n == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(n)
}
