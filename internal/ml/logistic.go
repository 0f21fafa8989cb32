// Package ml provides the learning substrate the paper relies on: binary
// logistic regression (used by the Attribute Correspondence classifier, §3.2,
// citing Hosmer & Lemeshow) and multi-class Naive Bayes (used by the title
// category classifier of §2 and the LSD baseline of Appendix C), plus the
// usual evaluation metrics.
//
// Everything is implemented on dense []float64 feature vectors with no
// external dependencies. Logistic regression is fitted by weighted
// Newton/IRLS, Hosmer & Lemeshow's maximum-likelihood method.
package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Example is one labeled training instance.
type Example struct {
	Features []float64
	// Label is 1 for positive, 0 for negative.
	Label int
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

// The ridge, added to every coordinate, keeps each Hessian positive
// definite, so separable or collinear sets get finite weights. A fit has
// converged once no coordinate moves by tolerance; it fails after maxIters.
const ridge, tolerance, maxIters = 1e-6, 1e-9, 100

// TrainLogistic fits a logistic regression by maximum likelihood, with
// class weights N / (2·N_c) so both classes carry equal mass (the
// auto-labeled set of §3.2 is imbalanced). It groups the examples into
// distinct (features, label) rows sorted by feature bits then label, and
// runs Newton/IRLS on them with a 1e-6 ridge, solving each step by
// Cholesky, until no coordinate moves by 1e-9; after 100 steps it fails.
// The sums run in sorted order, so the weights depend only on the
// multiset of examples.
func TrainLogistic(examples []Example) (*Logistic, error) {
	if len(examples) == 0 {
		return nil, ErrNoTrainingData
	}
	dim := len(examples[0].Features)
	var perLabel [2]int
	index := make(map[string]int) // looking up string(key) does not allocate
	var rows []row
	var key []byte
	for _, ex := range examples {
		if len(ex.Features) != dim {
			return nil, fmt.Errorf("ml: inconsistent feature dimension: %d vs %d", len(ex.Features), dim)
		}
		label := 0
		if ex.Label == 1 {
			label = 1
		}
		perLabel[label]++
		key = key[:0]
		for _, v := range ex.Features {
			key = binary.BigEndian.AppendUint64(key, math.Float64bits(v))
		}
		key = append(key, byte(label))
		if i, ok := index[string(key)]; ok {
			rows[i].count++
			continue
		}
		k := string(key)
		index[k] = len(rows)
		rows = append(rows, row{key: k, x: append(slices.Clip(ex.Features), 1), label: label, count: 1})
	}
	neg, pos, n := perLabel[0], perLabel[1], float64(len(examples))
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("%w: %d positive, %d negative", ErrNoTrainingData, pos, neg)
	}
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	beta := newton(rows, [2]float64{n / (2 * float64(neg)), n / (2 * float64(pos))})
	if beta == nil {
		return nil, fmt.Errorf("ml: logistic fit did not converge in %d Newton steps", maxIters)
	}
	return &Logistic{Weights: beta[:dim:dim], Bias: beta[dim]}, nil
}

// row is one distinct (features, label) row of a training set.
type row struct {
	key          string    // the features' bits, big-endian, then the label
	x            []float64 // the features, then a 1 for the bias
	label, count int
}

// newton minimises the rows' negative log-likelihood, each weighted by
// count × class weight, plus (ridge/2)·‖β‖², and returns β (the weights,
// then the bias) or nil if it does not converge. Each product is rounded
// by a float64 conversion, so no multiply-add is fused.
func newton(rows []row, classWeight [2]float64) []float64 {
	d := len(rows[0].x)
	beta := make([]float64, d)
	for iter := 0; iter < maxIters; iter++ {
		g, h := make([]float64, d), make([]float64, d*d) // h: the Hessian's lower triangle
		for _, r := range rows {
			z := 0.0
			for j, xj := range r.x {
				z += float64(beta[j] * xj)
			}
			p, w := sigmoid(z), float64(r.count)*classWeight[r.label]
			gr, hr := float64(w*(p-float64(r.label))), float64(w*float64(p*(1-p)))
			for j, xj := range r.x {
				g[j] += float64(gr * xj)
				hj := float64(hr * xj)
				for k, xk := range r.x[:j+1] {
					h[j*d+k] += float64(hj * xk)
				}
			}
		}
		for j := range beta {
			g[j] += float64(ridge * beta[j])
			h[j*d+j] += ridge
		}
		choleskySolve(h, g, d)
		step := 0.0
		for j, dj := range g {
			beta[j] -= dj
			step = max(step, math.Abs(dj))
		}
		if step < tolerance {
			return beta
		}
	}
	return nil
}

// choleskySolve overwrites b with the solution of A·x = b and a with A's
// Cholesky factor L, where a holds the lower triangle of the symmetric
// positive definite d×d matrix A, row-major.
func choleskySolve(a, b []float64, d int) {
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*d+j]
			for k := 0; k < j; k++ {
				s -= float64(a[i*d+k] * a[j*d+k])
			}
			if j < i {
				a[i*d+j] = s / a[j*d+j]
			} else {
				a[i*d+i] = math.Sqrt(s)
			}
		}
		for k := 0; k < i; k++ { // forward: L·y = b
			b[i] -= float64(a[i*d+k] * b[k])
		}
		b[i] /= a[i*d+i]
	}
	for i := d - 1; i >= 0; i-- { // back: Lᵀ·x = y
		for k := i + 1; k < d; k++ {
			b[i] -= float64(a[k*d+i] * b[k])
		}
		b[i] /= a[i*d+i]
	}
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
		pred := m.Prob(ex.Features) >= threshold
		switch {
		case pred && ex.Label == 1:
			out.TP++
		case pred && ex.Label == 0:
			out.FP++
		case !pred && ex.Label == 0:
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
