package eval

import (
	"math"
	"testing"
)

func TestProportionInterval(t *testing.T) {
	iv := ProportionInterval(92, 100, 0.95)
	if math.Abs(iv.Estimate-0.92) > 1e-12 {
		t.Errorf("estimate = %g", iv.Estimate)
	}
	if iv.Margin <= 0 || iv.Margin > 0.1 {
		t.Errorf("margin = %g", iv.Margin)
	}
	if iv.Low() > 0.92 || iv.High() < 0.92 {
		t.Error("interval must contain its estimate")
	}
	if iv.High() > 1 || iv.Low() < 0 {
		t.Error("interval must be clamped to [0,1]")
	}
	if got := ProportionInterval(0, 0, 0.95); got.Estimate != 0 || got.Margin != 0 {
		t.Errorf("zero trials = %+v", got)
	}
	// All successes: estimate 1, margin 0 under normal approximation.
	one := ProportionInterval(50, 50, 0.95)
	if one.Estimate != 1 || one.Margin != 0 {
		t.Errorf("all successes = %+v", one)
	}
}

func TestGradeSynthesisSampled(t *testing.T) {
	ds, products := pipelineRun(t)
	if len(products) < 10 {
		t.Skip("too few products")
	}
	exact := GradeSynthesis(products, ds.Truth, ds.Universe)

	// Full sample degrades to exact grading.
	full := GradeSynthesisSampled(products, ds.Truth, ds.Universe, len(products)+10, 0.95, 1)
	if full.SampledProducts != exact.Products {
		t.Errorf("full sample products = %d, want %d", full.SampledProducts, exact.Products)
	}
	if math.Abs(full.AttributePrec.Estimate-exact.AttributePrecision()) > 1e-12 {
		t.Errorf("full sample precision %g != exact %g", full.AttributePrec.Estimate, exact.AttributePrecision())
	}

	// A genuine sample: the interval should usually cover the exact value.
	sampled := GradeSynthesisSampled(products, ds.Truth, ds.Universe, len(products)/2, 0.95, 7)
	if sampled.SampledProducts != len(products)/2 {
		t.Errorf("sampled products = %d", sampled.SampledProducts)
	}
	if ex := exact.AttributePrecision(); ex < sampled.AttributePrec.Low() || ex > sampled.AttributePrec.High() {
		t.Logf("note: 95%% interval [%.3f, %.3f] missed exact %.3f (can happen 1 in 20)",
			sampled.AttributePrec.Low(), sampled.AttributePrec.High(), exact.AttributePrecision())
	}

	// Determinism: same seed, same sample.
	again := GradeSynthesisSampled(products, ds.Truth, ds.Universe, len(products)/2, 0.95, 7)
	if again.AttributePrec != sampled.AttributePrec {
		t.Error("sampling not deterministic for fixed seed")
	}
}
