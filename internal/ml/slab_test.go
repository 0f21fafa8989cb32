package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
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

// TestSlabSGDBitIdentical pins the slab rewrite of TrainLogistic, with
// its shuffles run an epoch ahead on a helper goroutine, to the
// per-example reference: identical Weights and Bias bits at the default
// 200 epochs and at 1 and 2 (the helper's first hand-offs, before both
// buffers have been recycled), for the feature widths the pipeline uses
// (1, the six classifier features, and seven with IncludeNameFeature),
// with and without class weighting, with L2 on to cover the hoisted lr·L2,
// and on a two-example set.
func TestSlabSGDBitIdentical(t *testing.T) {
	sets := map[string][]Example{
		"two": {
			{Features: []float64{0.25, 0.5}, Label: 1},
			{Features: []float64{0.75, 0.125}, Label: 0},
		},
	}
	for _, dim := range []int{1, 6, 7} {
		sets[fmt.Sprintf("dim%d", dim)] = imbalancedExamples(dim, 300, int64(dim))
	}
	for name, exs := range sets {
		for _, cfg := range []LogisticConfig{
			{Seed: 3},
			{Seed: 3, ClassWeighting: true},
			{Seed: 5, ClassWeighting: true, L2: 1e-4},
			{Seed: 7, Epochs: 1, ClassWeighting: true},
			{Seed: 7, Epochs: 2, ClassWeighting: true},
		} {
			sub := fmt.Sprintf("%s/weighting=%v/l2=%g", name, cfg.ClassWeighting, cfg.L2)
			if cfg.Epochs > 0 {
				sub += fmt.Sprintf("/epochs=%d", cfg.Epochs)
			}
			t.Run(sub, func(t *testing.T) {
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

// TestTrainLogisticJoinsHelper: no goroutine outlives TrainLogistic. The
// error returns come before the shuffling helper starts, so the goroutine
// count is back at its baseline the moment they return; after a
// successful fit the helper has been joined, and the count settles back
// as soon as it has finished exiting.
func TestTrainLogisticJoinsHelper(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for name, exs := range map[string][]Example{
		"empty":        nil,
		"single-class": {{Features: []float64{1}, Label: 1}, {Features: []float64{0}, Label: 1}},
		"ragged":       {{Features: []float64{1, 2}, Label: 1}, {Features: []float64{0}, Label: 0}},
	} {
		if _, err := TrainLogistic(exs, LogisticConfig{}); err == nil {
			t.Fatalf("%s: TrainLogistic returned no error", name)
		}
		if n := runtime.NumGoroutine(); n != baseline {
			t.Fatalf("%s: %d goroutines after the error return, baseline %d", name, n, baseline)
		}
	}
	exs := imbalancedExamples(6, 50, 1)
	for seed := int64(0); seed < 20; seed++ {
		if _, err := TrainLogistic(exs, LogisticConfig{Epochs: 3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines outlived TrainLogistic: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkTrainLogistic fits the default 200 epochs over a set the size
// of the bench marketplace's auto-labeled training set (≈90k examples of
// the six classifier features). Compare -cpu 1,2: the shuffles run on a
// helper goroutine, so the second CPU takes them off the update loop.
func BenchmarkTrainLogistic(b *testing.B) {
	exs := imbalancedExamples(6, 90000, 6)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := TrainLogistic(exs, LogisticConfig{Seed: 1, ClassWeighting: true}); err != nil {
			b.Fatal(err)
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
