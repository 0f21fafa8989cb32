package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refNewton is the textbook fit TrainLogistic must reproduce: Newton's
// method over every example, ungrouped and in input order, each weighted
// by its class weight (N / (2·N_c) when weighted, else 1), with the same
// ridge, stopping rule and cap, and Gaussian elimination for each step.
func refNewton(t *testing.T, examples []Example, weighted bool) *Logistic {
	t.Helper()
	dim := len(examples[0].Features)
	d := dim + 1
	classWeight := [2]float64{1, 1}
	if weighted {
		pos := 0
		for _, ex := range examples {
			pos += ex.Label
		}
		n := float64(len(examples))
		classWeight = [2]float64{n / (2 * (n - float64(pos))), n / (2 * float64(pos))}
	}
	beta := make([]float64, d)
	for iter := 0; iter < maxIters; iter++ {
		// sys is the augmented system [H | g].
		sys := make([][]float64, d)
		for j := range sys {
			sys[j] = make([]float64, d+1)
		}
		for _, ex := range examples {
			x := append(slices.Clone(ex.Features), 1)
			z := 0.0
			for j := range x {
				z += beta[j] * x[j]
			}
			p := 1 / (1 + math.Exp(-z))
			w := classWeight[ex.Label]
			for j := range x {
				sys[j][d] += w * (p - float64(ex.Label)) * x[j]
				for k := range x {
					sys[j][k] += w * p * (1 - p) * x[j] * x[k]
				}
			}
		}
		for j := range sys {
			sys[j][d] += ridge * beta[j]
			sys[j][j] += ridge
		}
		step := 0.0
		for j, dj := range gaussSolve(sys) {
			beta[j] -= dj
			step = max(step, math.Abs(dj))
		}
		if step < tolerance {
			return &Logistic{Weights: beta[:dim], Bias: beta[dim]}
		}
	}
	t.Fatal("reference Newton did not converge")
	return nil
}

// gaussSolve solves the augmented system [A | b] by Gaussian elimination
// with partial pivoting.
func gaussSolve(sys [][]float64) []float64 {
	d := len(sys)
	for c := 0; c < d; c++ {
		piv := c
		for r := c + 1; r < d; r++ {
			if math.Abs(sys[r][c]) > math.Abs(sys[piv][c]) {
				piv = r
			}
		}
		sys[c], sys[piv] = sys[piv], sys[c]
		for r := c + 1; r < d; r++ {
			f := sys[r][c] / sys[c][c]
			for k := c; k <= d; k++ {
				sys[r][k] -= f * sys[c][k]
			}
		}
	}
	x := make([]float64, d)
	for r := d - 1; r >= 0; r-- {
		s := sys[r][d]
		for k := r + 1; k < d; k++ {
			s -= sys[r][k] * x[k]
		}
		x[r] = s / sys[r][r]
	}
	return x
}

// gridExamples is imbalancedExamples with every feature rounded to one of
// levels evenly spaced values, so the set repeats rows the way the
// auto-labeled training set does.
func gridExamples(dim, n, levels int, seed int64) []Example {
	exs := imbalancedExamples(dim, n, seed)
	for _, ex := range exs {
		for j, v := range ex.Features {
			ex.Features[j] = math.Round(v*float64(levels-1)) / float64(levels-1)
		}
	}
	return exs
}

// countDistinct counts the distinct (features, label) rows of a set.
func countDistinct(exs []Example) int {
	seen := make(map[string]bool)
	for _, ex := range exs {
		seen[fmt.Sprint(ex.Features, ex.Label)] = true
	}
	return len(seen)
}

// TestTrainLogisticOrderInvariant: the fit is a function of the multiset of
// examples. Shuffled copies of a set with repeated rows give the same
// weight and bias bits, which accumulating the rows in input order would
// not.
func TestTrainLogisticOrderInvariant(t *testing.T) {
	exs := gridExamples(6, 4000, 4, 11)
	want, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		shuffled := slices.Clone(exs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := TrainLogistic(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Weights {
			if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
				t.Errorf("shuffle %d: weight %d = %v, unshuffled %v", trial, j, got.Weights[j], want.Weights[j])
			}
		}
		if math.Float64bits(got.Bias) != math.Float64bits(want.Bias) {
			t.Errorf("shuffle %d: bias = %v, unshuffled %v", trial, got.Bias, want.Bias)
		}
	}
}

// TestTrainLogisticMatchesUngroupedNewton: fitting the distinct rows with
// their multiplicities and class weights reaches the same optimum as
// Newton over every raw example, to within 1e-9, for the feature widths
// the pipeline uses (six, and seven with the name feature) and one.
func TestTrainLogisticMatchesUngroupedNewton(t *testing.T) {
	for _, dim := range []int{1, 6, 7} {
		exs := gridExamples(dim, 6000, 3, int64(dim))
		if distinct := countDistinct(exs); distinct*2 > len(exs) {
			t.Fatalf("dim %d: %d distinct rows of %d; the set must repeat rows", dim, distinct, len(exs))
		}
		got, err := TrainLogistic(exs)
		if err != nil {
			t.Fatal(err)
		}
		want := refNewton(t, exs, true)
		for j := range want.Weights {
			if d := math.Abs(got.Weights[j] - want.Weights[j]); d > 1e-9 {
				t.Errorf("dim %d: weight %d = %v, ungrouped reference %v (off by %g)", dim, j, got.Weights[j], want.Weights[j], d)
			}
		}
		if d := math.Abs(got.Bias - want.Bias); d > 1e-9 {
			t.Errorf("dim %d: bias = %v, ungrouped reference %v (off by %g)", dim, got.Bias, want.Bias, d)
		}
	}
}

// TestTrainLogisticCollinear: two identical feature columns make the
// likelihood flat along their difference; the ridge still gives finite
// weights, split equally between the two columns.
func TestTrainLogisticCollinear(t *testing.T) {
	exs := imbalancedExamples(2, 2000, 4)
	for i, ex := range exs {
		exs[i].Features = []float64{ex.Features[0], ex.Features[0], ex.Features[1]}
	}
	m, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range append(slices.Clone(m.Weights), m.Bias) {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("coefficient %d = %v", j, w)
		}
	}
	if d := math.Abs(m.Weights[0] - m.Weights[1]); d > 1e-9*math.Abs(m.Weights[0]) {
		t.Errorf("identical columns got weights %v and %v", m.Weights[0], m.Weights[1])
	}
}

// sgdConfig is one setting of the 200-epoch SGD learner TrainLogistic
// replaced; zero Epochs and LearningRate mean 200 and 0.1.
type sgdConfig struct {
	Epochs         int
	LearningRate   float64
	L2             float64
	Seed           int64
	ClassWeighting bool
}

// refTrainLogistic is the per-example SGD learner TrainLogistic replaced,
// kept as the baseline its fit must beat. It returns the model and the
// order it visited the examples in on its last epoch. Inputs are assumed
// valid.
func refTrainLogistic(examples []Example, cfg sgdConfig) (*Logistic, []Example) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 200
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
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
	visited := make([]Example, len(order))
	for i, idx := range order {
		visited[i] = examples[idx]
	}
	return model, visited
}

// objective is what TrainLogistic minimises: the class-weighted negative
// log-likelihood plus (ridge/2)·‖β‖² over the weights and the bias.
func objective(m *Logistic, examples []Example) float64 {
	var pos float64
	for _, ex := range examples {
		pos += float64(ex.Label)
	}
	n := float64(len(examples))
	classWeight := [2]float64{n / (2 * (n - pos)), n / (2 * pos)}
	f := 0.0
	for _, ex := range examples {
		z := m.Bias
		for j, w := range m.Weights {
			z += w * ex.Features[j]
		}
		// log(1+e^z) - y·z, without overflow for large |z|.
		nll := max(z, 0) + math.Log1p(math.Exp(-math.Abs(z))) - float64(ex.Label)*z
		f += classWeight[ex.Label] * nll
	}
	sq := m.Bias * m.Bias
	for _, w := range m.Weights {
		sq += w * w
	}
	return f + ridge/2*sq
}

// TestSlabSGDBitIdentical once pinned the slab SGD loop bit for bit to the
// per-example SGD reference; it now holds the Newton fit to that SGD
// learner's settings, for the feature widths the pipeline uses (1, the six
// classifier features, and seven with the name feature) and a two-example
// set. For each SGD setting, (a) fitting the examples in the order SGD
// last visited them gives the same weight and bias bits as the input
// order, and (b) the Newton fit's objective is strictly below that of the
// SGD fit, so replacing SGD never fits the training set worse.
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
		want, err := TrainLogistic(exs)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []sgdConfig{
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
				sgd, visited := refTrainLogistic(exs, cfg)
				got, err := TrainLogistic(visited)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want.Weights {
					if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
						t.Errorf("weight %d = %v in SGD's order, %v in input order", j, got.Weights[j], want.Weights[j])
					}
				}
				if math.Float64bits(got.Bias) != math.Float64bits(want.Bias) {
					t.Errorf("bias = %v in SGD's order, %v in input order", got.Bias, want.Bias)
				}
				if fn, fs := objective(got, exs), objective(sgd, exs); fn >= fs {
					t.Errorf("Newton objective %v, not below SGD's %v", fn, fs)
				}
			})
		}
	}
}

// TestTrainLogisticJoinsHelper: no goroutine outlives TrainLogistic, which
// runs on its caller's goroutine alone. The goroutine count is no higher
// than its baseline the moment it returns, after an error and after a fit
// (it may be lower: a goroutine of an earlier test may still be exiting).
func TestTrainLogisticJoinsHelper(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for name, exs := range map[string][]Example{
		"empty":        nil,
		"single-class": {{Features: []float64{1}, Label: 1}, {Features: []float64{0}, Label: 1}},
		"ragged":       {{Features: []float64{1, 2}, Label: 1}, {Features: []float64{0}, Label: 0}},
	} {
		if _, err := TrainLogistic(exs); err == nil {
			t.Fatalf("%s: TrainLogistic returned no error", name)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%s: %d goroutines after the error return, baseline %d", name, n, baseline)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		if _, err := TrainLogistic(imbalancedExamples(6, 50, seed)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("seed %d: %d goroutines after the fit, baseline %d\n%s",
				seed, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// BenchmarkTrainLogistic fits a set the size of the bench marketplace's
// auto-labeled training set (≈90k examples of the six classifier
// features). Its features are continuous, so every row is distinct: this
// measures the Newton steps with no help from grouping.
func BenchmarkTrainLogistic(b *testing.B) {
	exs := imbalancedExamples(6, 90000, 6)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := TrainLogistic(exs); err != nil {
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
