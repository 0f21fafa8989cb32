package eval

import (
	"math"
	"math/rand"

	"prodsynth/internal/catalog"
	"prodsynth/internal/fusion"
	"prodsynth/internal/synth"
)

// The paper could not grade all 287,135 synthesized products, so it sampled
// 400 products / 1,447 attribute pairs and reported interval estimates at
// 95% confidence (§5.1, citing Mendenhall). This file reproduces that
// protocol so the repository can report results both ways: exact (the
// generator knows the truth) and sampled (the paper's methodology).

// Interval is an estimate with a symmetric confidence interval.
type Interval struct {
	Estimate float64
	// Margin is the half-width of the interval at the requested
	// confidence level.
	Margin float64
}

// Low and High bound the interval, clamped to [0,1] for proportions.
func (iv Interval) Low() float64 {
	if v := iv.Estimate - iv.Margin; v > 0 {
		return v
	}
	return 0
}

// High returns the upper bound of the interval.
func (iv Interval) High() float64 {
	if v := iv.Estimate + iv.Margin; v < 1 {
		return v
	}
	return 1
}

// zFor maps a confidence level to the normal quantile. Only the levels
// used in practice are tabulated; unknown levels fall back to 95%.
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.995:
		return 2.807
	case confidence >= 0.99:
		return 2.576
	case confidence >= 0.95:
		return 1.96
	case confidence >= 0.90:
		return 1.645
	default:
		return 1.96
	}
}

// ProportionInterval computes the normal-approximation interval for
// successes/trials at the given confidence.
func ProportionInterval(successes, trials int, confidence float64) Interval {
	if trials == 0 {
		return Interval{}
	}
	p := float64(successes) / float64(trials)
	se := math.Sqrt(p * (1 - p) / float64(trials))
	return Interval{Estimate: p, Margin: zFor(confidence) * se}
}

// SampledReport is the outcome of the paper's sampling protocol.
type SampledReport struct {
	SampledProducts int
	SampledPairs    int
	AttributePrec   Interval
	ProductPrec     Interval
}

// GradeSynthesisSampled reproduces the paper's §5.1 methodology: sample
// sampleProducts synthesized products uniformly (seeded rng for
// reproducibility), grade only those, and report interval estimates at the
// given confidence. With sampleProducts >= len(products) it degrades to
// exact grading with intervals attached.
func GradeSynthesisSampled(products []fusion.Synthesized, truth *synth.Truth, universe map[string]catalog.Product, sampleProducts int, confidence float64, seed int64) SampledReport {
	rng := rand.New(rand.NewSource(seed))
	sample := products
	if sampleProducts < len(products) {
		idx := rng.Perm(len(products))[:sampleProducts]
		sample = make([]fusion.Synthesized, sampleProducts)
		for i, j := range idx {
			sample[i] = products[j]
		}
	}
	rep := GradeSynthesis(sample, truth, universe)
	return SampledReport{
		SampledProducts: rep.Products,
		SampledPairs:    rep.AttributePairs,
		AttributePrec:   ProportionInterval(rep.CorrectPairs, rep.AttributePairs, confidence),
		ProductPrec:     ProportionInterval(rep.CorrectProducts, rep.Products, confidence),
	}
}
