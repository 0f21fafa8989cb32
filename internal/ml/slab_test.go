package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTrainLogistic is a verbatim copy of the per-example SGD loop that
// TrainLogistic ran before it moved to a flat slab, kept as the reference
// the slab version must match bit for bit. Inputs are assumed valid.
func refTrainLogistic(examples []Example, cfg LogisticConfig) *Logistic {
	cfg = cfg.withDefaults()
	dim := len(examples[0].Features)
	pos, neg := 0, 0
	for _, ex := range examples {
		if ex.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	wPos, wNeg := 1.0, 1.0
	if cfg.ClassWeighting {
		n := float64(len(examples))
		wPos = n / (2 * float64(pos))
		wNeg = n / (2 * float64(neg))
	}
	model := &Logistic{Weights: make([]float64, dim)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		for _, idx := range order {
			ex := examples[idx]
			p := model.Prob(ex.Features)
			grad := p - float64(ex.Label)
			w := wNeg
			if ex.Label == 1 {
				w = wPos
			}
			g := lr * w * grad
			for j, x := range ex.Features {
				model.Weights[j] -= g*x + lr*cfg.L2*model.Weights[j]
			}
			model.Bias -= g
		}
	}
	return model
}

// TestSlabSGDBitIdentical pins the slab rewrite of TrainLogistic to the
// per-example reference: identical Weights and Bias bits at the default
// 200 epochs, for the feature widths the pipeline uses (1, the six
// classifier features, and seven with IncludeNameFeature), with and
// without class weighting, and with L2 on to cover the hoisted lr·L2.
func TestSlabSGDBitIdentical(t *testing.T) {
	for _, dim := range []int{1, 6, 7} {
		exs := imbalancedExamples(dim, 300, int64(dim))
		for _, cfg := range []LogisticConfig{
			{Seed: 3},
			{Seed: 3, ClassWeighting: true},
			{Seed: 5, ClassWeighting: true, L2: 1e-4},
		} {
			t.Run(fmt.Sprintf("dim%d/weighting=%v/l2=%g", dim, cfg.ClassWeighting, cfg.L2), func(t *testing.T) {
				got, err := TrainLogistic(exs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := refTrainLogistic(exs, cfg)
				for j := range want.Weights {
					if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
						t.Errorf("weight %d = %v, reference %v", j, got.Weights[j], want.Weights[j])
					}
				}
				if math.Float64bits(got.Bias) != math.Float64bits(want.Bias) {
					t.Errorf("bias = %v, reference %v", got.Bias, want.Bias)
				}
			})
		}
	}
}

// imbalancedExamples draws n examples in [0,1]^dim with roughly one
// positive in four and label noise, like the auto-labeled training set.
func imbalancedExamples(dim, n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		x := make([]float64, dim)
		var s float64
		for j := range x {
			x[j] = rng.Float64()
			s += x[j]
		}
		label := 0
		if s/float64(dim)+0.2*rng.NormFloat64() > 0.65 {
			label = 1
		}
		out[i] = Example{Features: x, Label: label}
	}
	return out
}
