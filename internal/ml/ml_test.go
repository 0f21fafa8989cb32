package ml

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a 2-D dataset separable by x0 > x1.
func linearlySeparable(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		label := 0
		if a > b+0.05 {
			label = 1
		} else if a > b {
			continue // margin
		}
		out = append(out, Example{Features: []float64{a, b}, Label: label})
	}
	return out
}

// TestTrainLogisticSeparable: a perfectly separable set converges within
// the step cap to finite weights that classify every training row
// correctly, and generalize to a fresh sample.
func TestTrainLogisticSeparable(t *testing.T) {
	exs := linearlySeparable(500, 1)
	m, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range append(slices.Clone(m.Weights), m.Bias) {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("coefficient %d = %v", j, w)
		}
	}
	met := Evaluate(m, exs, 0.5)
	if met.FP+met.FN != 0 {
		t.Errorf("misclassified training rows on a separable set: %+v", met)
	}
	// Generalization on a fresh sample.
	test := linearlySeparable(300, 2)
	met = Evaluate(m, test, 0.5)
	if acc := met.Accuracy(); acc < 0.95 {
		t.Errorf("test accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTrainLogisticDeterministic(t *testing.T) {
	exs := linearlySeparable(200, 3)
	m1, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Weights {
		if m1.Weights[i] != m2.Weights[i] {
			t.Fatalf("weights differ at %d: %g vs %g", i, m1.Weights[i], m2.Weights[i])
		}
	}
	if m1.Bias != m2.Bias {
		t.Error("bias differs")
	}
}

func TestTrainLogisticErrors(t *testing.T) {
	if _, err := TrainLogistic(nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty err = %v", err)
	}
	onlyPos := []Example{{Features: []float64{1}, Label: 1}}
	if _, err := TrainLogistic(onlyPos); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("single-class err = %v", err)
	}
	ragged := []Example{
		{Features: []float64{1, 2}, Label: 1},
		{Features: []float64{1}, Label: 0},
	}
	if _, err := TrainLogistic(ragged); err == nil {
		t.Error("ragged features should error")
	}
	// A NaN feature never converges: the fit fails at the step cap and
	// returns no partial model.
	nan := []Example{
		{Features: []float64{math.NaN()}, Label: 1},
		{Features: []float64{0}, Label: 0},
	}
	if m, err := TrainLogistic(nan); err == nil || m != nil {
		t.Errorf("NaN feature: model %v, err %v; want an error and no model", m, err)
	}
}

func TestClassWeightingHelpsImbalance(t *testing.T) {
	// 95:5 imbalance with a weak signal; the class weights TrainLogistic
	// always applies should improve recall of the minority class at
	// threshold 0.5 over the unweighted maximum-likelihood fit.
	rng := rand.New(rand.NewSource(9))
	var exs []Example
	for i := 0; i < 950; i++ {
		exs = append(exs, Example{Features: []float64{rng.Float64() * 0.6}, Label: 0})
	}
	for i := 0; i < 50; i++ {
		exs = append(exs, Example{Features: []float64{0.4 + rng.Float64()*0.6}, Label: 1})
	}
	unweighted := refNewton(t, exs, false)
	weighted, err := TrainLogistic(exs)
	if err != nil {
		t.Fatal(err)
	}
	ru := Evaluate(unweighted, exs, 0.5).Recall()
	rw := Evaluate(weighted, exs, 0.5).Recall()
	if rw <= ru {
		t.Errorf("weighted recall %.3f <= unweighted %.3f", rw, ru)
	}
}

func TestSigmoid(t *testing.T) {
	if got := sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %g", got)
	}
	if got := sigmoid(100); got <= 0.999 {
		t.Errorf("sigmoid(100) = %g", got)
	}
	if got := sigmoid(-100); got >= 0.001 {
		t.Errorf("sigmoid(-100) = %g", got)
	}
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		p := sigmoid(z)
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbMonotonicInScore(t *testing.T) {
	m := &Logistic{Weights: []float64{2, -1}, Bias: 0.5}
	lo := m.Prob([]float64{0, 1})
	hi := m.Prob([]float64{1, 0})
	if lo >= hi {
		t.Errorf("prob not monotone: %g vs %g", lo, hi)
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, TN: 85, FN: 5}
	if p := m.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("precision = %g", p)
	}
	if r := m.Recall(); math.Abs(r-8.0/13) > 1e-12 {
		t.Errorf("recall = %g", r)
	}
	if f := m.F1(); f <= 0 || f >= 1 {
		t.Errorf("f1 = %g", f)
	}
	if a := m.Accuracy(); math.Abs(a-0.93) > 1e-12 {
		t.Errorf("accuracy = %g", a)
	}
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Error("zero metrics should be 0")
	}
}

func TestNaiveBayesBasic(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("hard-drives", []string{"hdd", "sata", "rpm", "gb"})
	nb.Train("hard-drives", []string{"drive", "gb", "cache", "sata"})
	nb.Train("cameras", []string{"mp", "zoom", "lens"})
	nb.Train("cameras", []string{"camera", "lens", "sensor"})

	class, p := nb.Classify([]string{"sata", "gb", "rpm"})
	if class != "hard-drives" {
		t.Errorf("class = %q (p=%g)", class, p)
	}
	class, _ = nb.Classify([]string{"zoom", "lens"})
	if class != "cameras" {
		t.Errorf("class = %q", class)
	}
	if nb.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", nb.NumClasses())
	}
}

func TestNaiveBayesPosteriorSumsToOne(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("a", []string{"x", "y"})
	nb.Train("b", []string{"z"})
	nb.Train("c", []string{"x", "z"})
	post := nb.Posterior([]string{"x", "q"})
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior mass = %g", sum)
	}
}

func TestNaiveBayesUnknownTokens(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("a", []string{"x"})
	nb.Train("b", []string{"y"})
	// All-unknown tokens: smoothing must keep this finite and prior-driven.
	class, p := nb.Classify([]string{"unseen", "tokens"})
	if class == "" || math.IsNaN(p) {
		t.Errorf("classify unknown = %q, %g", class, p)
	}
}

func TestNaiveBayesPriors(t *testing.T) {
	nb := NewNaiveBayes(1)
	// Class "big" has 9 docs, "small" has 1, same token content.
	for i := 0; i < 9; i++ {
		nb.Train("big", []string{"t"})
	}
	nb.Train("small", []string{"t"})
	class, _ := nb.Classify([]string{"t"})
	if class != "big" {
		t.Errorf("with priors, class = %q", class)
	}
	nb.SetUniformPriors()
	post := nb.Posterior([]string{"t"})
	if math.Abs(post["big"]-post["small"]) > 1e-9 {
		t.Errorf("uniform priors should tie: %v", post)
	}
}

func TestNaiveBayesEmpty(t *testing.T) {
	nb := NewNaiveBayes(1)
	if class, p := nb.Classify([]string{"x"}); class != "" || p != 0 {
		t.Errorf("empty classifier = %q, %g", class, p)
	}
	if lp := nb.LogPosterior("missing", []string{"x"}); !math.IsInf(lp, -1) {
		t.Errorf("unknown class LogPosterior = %g", lp)
	}
}

func TestNaiveBayesDeterministicTieBreak(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Train("beta", []string{"t"})
	nb.Train("alpha", []string{"t"})
	class, _ := nb.Classify([]string{"t"})
	if class != "alpha" {
		t.Errorf("tie should break lexicographically, got %q", class)
	}
}

func BenchmarkNaiveBayesClassify(b *testing.B) {
	nb := NewNaiveBayes(1)
	for i := 0; i < 50; i++ {
		nb.Train("hard-drives", []string{"hdd", "sata", "rpm", "gb"})
		nb.Train("cameras", []string{"mp", "zoom", "lens"})
		nb.Train("kitchen", []string{"watt", "steel", "dishwasher"})
	}
	toks := []string{"sata", "gb", "rpm", "cache"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nb.Classify(toks)
	}
}

// TestNaiveBayesSnapshotRoundTrip pins the snapshot contract: a rebuilt
// classifier posts identical posteriors, the snapshot itself is
// deterministic, and derived state (vocabulary, totals) is recovered.
func TestNaiveBayesSnapshotRoundTrip(t *testing.T) {
	nb := NewNaiveBayes(0.5)
	nb.Train("hard-drives", []string{"hdd", "sata", "rpm", "rpm"})
	nb.Train("hard-drives", []string{"gb", "sata"})
	nb.Train("cameras", []string{"mp", "zoom", "lens"})
	nb.Train("kitchen", []string{"watt", "steel"})

	snap := nb.Snapshot()
	if len(snap.Classes) != 3 || snap.Classes[0].Name != "cameras" {
		t.Fatalf("snapshot classes = %+v (want 3, sorted)", snap.Classes)
	}
	rebuilt := NaiveBayesFromSnapshot(snap)

	if got, want := rebuilt.Classes(), nb.Classes(); len(got) != len(want) {
		t.Fatalf("classes %v vs %v", got, want)
	}
	for _, toks := range [][]string{
		{"sata", "gb"}, {"zoom"}, {"watt", "steel", "unknown"}, {},
	} {
		c1, p1 := nb.Classify(toks)
		c2, p2 := rebuilt.Classify(toks)
		if c1 != c2 || p1 != p2 {
			t.Errorf("tokens %v: original (%q, %v) vs rebuilt (%q, %v)", toks, c1, p1, c2, p2)
		}
		for _, class := range nb.Classes() {
			if lp1, lp2 := nb.LogPosterior(class, toks), rebuilt.LogPosterior(class, toks); lp1 != lp2 {
				t.Errorf("LogPosterior(%q, %v): %v vs %v", class, toks, lp1, lp2)
			}
		}
	}

	// Determinism: snapshotting the rebuilt classifier reproduces the
	// snapshot exactly.
	again := rebuilt.Snapshot()
	if len(again.Classes) != len(snap.Classes) {
		t.Fatalf("re-snapshot has %d classes, want %d", len(again.Classes), len(snap.Classes))
	}
	for i := range snap.Classes {
		a, b := snap.Classes[i], again.Classes[i]
		if a.Name != b.Name || a.Docs != b.Docs || len(a.Tokens) != len(b.Tokens) {
			t.Fatalf("class %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Tokens {
			if a.Tokens[j] != b.Tokens[j] {
				t.Errorf("class %s token %d: %+v vs %+v", a.Name, j, a.Tokens[j], b.Tokens[j])
			}
		}
	}

	// Uniform priors survive the round trip too.
	nb.SetUniformPriors()
	uniform := NaiveBayesFromSnapshot(nb.Snapshot())
	if lp1, lp2 := nb.LogPosterior("cameras", []string{"zoom"}), uniform.LogPosterior("cameras", []string{"zoom"}); lp1 != lp2 {
		t.Errorf("uniform-prior LogPosterior: %v vs %v", lp1, lp2)
	}
}
