// Package eval computes the paper's evaluation metrics: precision-at-
// coverage curves for attribute correspondences (§5.2, Figures 6-9, with
// the relative-recall argument of Appendix B), and attribute/product
// precision and attribute recall for synthesized products (§5.1, Tables
// 2-4). Ground truth comes from the synthetic marketplace generator, so
// grading is exact rather than sampled.
package eval

import (
	"fmt"
	"io"
	"sort"

	"prodsynth/internal/correspond"
)

// TruthFunc reports whether a candidate is a true attribute correspondence.
type TruthFunc func(correspond.Candidate) bool

// Point is one point of a precision-at-coverage curve.
type Point struct {
	// Theta is the score threshold at this point.
	Theta float64
	// Coverage is the number of correspondences with score >= Theta
	// (the paper's x-axis).
	Coverage int
	// Precision is the fraction of those that are correct.
	Precision float64
}

// CurveOptions configures curve computation.
type CurveOptions struct {
	// ExcludeNameIdentity drops candidates where the names are equal, as
	// the paper does ("we exclude from the evaluation set the name
	// identity correspondences which are used to construct the
	// classifier", §5.2). Default in the experiments: true.
	ExcludeNameIdentity bool
	// Points is the number of curve points (default 40). Points are
	// spaced quadratically in rank space — dense near the head of the
	// ranking — because the interesting region of the paper's figures is
	// high precision at low coverage.
	Points int
	// MinScore drops candidates at or below this score before sweeping
	// (default 0: zero-scored candidates are never counted as output).
	MinScore float64
}

// PrecisionAtCoverage sweeps the score threshold over a ranked candidate
// list, producing the paper's precision-vs-coverage curve. The input must
// be sorted by descending score (as all scorers in this repository return).
func PrecisionAtCoverage(scored []correspond.Scored, truth TruthFunc, opts CurveOptions) []Point {
	if opts.Points <= 0 {
		opts.Points = 40
	}
	filtered := filterAndRank(scored, opts)
	if len(filtered) == 0 {
		return nil
	}
	// Running precision over the ranked list.
	correct := 0
	cum := make([]int, len(filtered))
	for i, sc := range filtered {
		if truth(sc.Candidate) {
			correct++
		}
		cum[i] = correct
	}
	var pts []Point
	lastK := 0
	for p := 1; p <= opts.Points; p++ {
		frac := float64(p) / float64(opts.Points)
		k := int(frac * frac * float64(len(filtered)))
		if k <= lastK {
			k = lastK + 1
		}
		if k > len(filtered) {
			break
		}
		lastK = k
		pts = append(pts, Point{
			Theta:     filtered[k-1].Score,
			Coverage:  k,
			Precision: float64(cum[k-1]) / float64(k),
		})
	}
	return pts
}

// filterAndRank applies the option filters and returns candidates sorted by
// descending score (stable, preserving the caller's tie order).
func filterAndRank(scored []correspond.Scored, opts CurveOptions) []correspond.Scored {
	filtered := make([]correspond.Scored, 0, len(scored))
	for _, sc := range scored {
		if opts.ExcludeNameIdentity && sc.NameIdentity() {
			continue
		}
		if sc.Score <= opts.MinScore {
			continue
		}
		filtered = append(filtered, sc)
	}
	sort.SliceStable(filtered, func(i, j int) bool { return filtered[i].Score > filtered[j].Score })
	return filtered
}

// MaxCoverageAtPrecision scans the full ranking and returns the largest k
// such that the precision of the top k is at least p, independent of
// curve-point granularity — how the paper phrases comparisons like "we
// obtain 20K correspondences with 0.87 precision".
func MaxCoverageAtPrecision(scored []correspond.Scored, truth TruthFunc, opts CurveOptions, p float64) int {
	correct, best := 0, 0
	for k, sc := range filterAndRank(scored, opts) {
		if truth(sc.Candidate) {
			correct++
		}
		if float64(correct) >= p*float64(k+1) {
			best = k + 1
		}
	}
	return best
}

// Series is a named curve, for reports.
type Series struct {
	Name   string
	Points []Point
}

// WriteCurves renders curves as aligned text columns (coverage, precision
// per series), the textual analogue of the paper's figures.
func WriteCurves(w io.Writer, series []Series) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "# %s\n", s.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%-10s %-10s %s\n", "coverage", "precision", "theta"); err != nil {
			return err
		}
		for _, pt := range s.Points {
			if _, err := fmt.Fprintf(w, "%-10d %-10.3f %.4f\n", pt.Coverage, pt.Precision, pt.Theta); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
