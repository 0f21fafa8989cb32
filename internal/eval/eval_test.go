package eval

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/fusion"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
)

func scoredFixture() []correspond.Scored {
	key := offer.SchemaKey{Merchant: "m", CategoryID: "c"}
	mk := func(ap, ao string, score float64) correspond.Scored {
		return correspond.Scored{
			Candidate: correspond.Candidate{Key: key, CatalogAttr: ap, MerchantAttr: ao},
			Score:     score,
		}
	}
	return []correspond.Scored{
		mk("Speed", "RPM", 0.95),       // true
		mk("Brand", "Make", 0.90),      // true
		mk("Speed", "Speed", 0.88),     // identity (excluded by default)
		mk("Capacity", "RPM", 0.70),    // false
		mk("Interface", "Conn", 0.60),  // true
		mk("Capacity", "Junk", 0.40),   // false
		mk("Interface", "Avail", 0.20), // false
		mk("Speed", "Zero", 0),         // zero score: never counted
	}
}

func truthFixture() TruthFunc {
	truths := map[string]bool{
		"Speed/RPM": true, "Brand/Make": true, "Interface/Conn": true,
		"Speed/Speed": true,
	}
	return func(c correspond.Candidate) bool {
		return truths[c.CatalogAttr+"/"+c.MerchantAttr]
	}
}

func TestPrecisionAtCoverage(t *testing.T) {
	pts := PrecisionAtCoverage(scoredFixture(), truthFixture(), CurveOptions{
		ExcludeNameIdentity: true,
		Points:              6,
	})
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// First point: top-1 is Speed/RPM (true) -> precision 1.
	if pts[0].Coverage != 1 || pts[0].Precision != 1 {
		t.Errorf("pts[0] = %+v", pts[0])
	}
	// Last point: 6 candidates, 3 true -> 0.5.
	last := pts[len(pts)-1]
	if last.Coverage != 6 || math.Abs(last.Precision-0.5) > 1e-9 {
		t.Errorf("last = %+v", last)
	}
	// Coverage must be nondecreasing, precision in [0,1].
	for i := 1; i < len(pts); i++ {
		if pts[i].Coverage < pts[i-1].Coverage {
			t.Error("coverage not monotone")
		}
		if pts[i].Precision < 0 || pts[i].Precision > 1 {
			t.Error("precision out of range")
		}
	}
}

func TestPrecisionAtCoverageIncludeIdentity(t *testing.T) {
	pts := PrecisionAtCoverage(scoredFixture(), truthFixture(), CurveOptions{Points: 7})
	last := pts[len(pts)-1]
	if last.Coverage != 7 {
		t.Errorf("identity not included: %+v", last)
	}
}

func TestPrecisionAtCoverageEmpty(t *testing.T) {
	if pts := PrecisionAtCoverage(nil, truthFixture(), CurveOptions{}); pts != nil {
		t.Errorf("pts = %v", pts)
	}
}

func TestWriteCurves(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCurves(&buf, []Series{{
		Name:   "Our approach",
		Points: []Point{{Theta: 0.5, Coverage: 100, Precision: 0.87}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Our approach") || !strings.Contains(out, "0.870") {
		t.Errorf("output = %q", out)
	}
}

func TestValueCorrect(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"500", "500", true},
		{"500 GB", "500", true}, // unit appended
		{"500", "500 GB", true},
		{"Microsoft Windows Vista", "Windows Vista", true},
		{"7200", "500", false},
		{"SATA 300", "IDE 133", false},
		{"", "", true},
		{"", "x", false},
		{"Seagate Barracuda 500", "Barracuda", true}, // brand-prefixed
	}
	for _, c := range cases {
		if got := ValueCorrect(c.a, c.b); got != c.want {
			t.Errorf("ValueCorrect(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCorrectSymmetric(t *testing.T) {
	pairs := [][2]string{{"500 GB", "500"}, {"a b", "b c"}, {"x", "x"}}
	for _, p := range pairs {
		if ValueCorrect(p[0], p[1]) != ValueCorrect(p[1], p[0]) {
			t.Errorf("asymmetric for %q / %q", p[0], p[1])
		}
	}
}

// pipelineRun runs the full pipeline on a small marketplace and returns
// everything grading needs.
func pipelineRun(t *testing.T) (*synth.Dataset, []fusion.Synthesized) {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Seed:                5,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 20,
		Merchants:           24,
	})
	fetcher := core.MapFetcher(ds.Pages)
	off, err := core.RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.RunRuntime(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, run.Products
}

func TestGradeSynthesisEndToEnd(t *testing.T) {
	ds, products := pipelineRun(t)
	rep := GradeSynthesis(products, ds.Truth, ds.Universe)
	if rep.Products == 0 || rep.AttributePairs == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if p := rep.AttributePrecision(); p < 0.8 {
		t.Errorf("attribute precision = %.3f, want >= 0.8 (paper: 0.92)", p)
	}
	if p := rep.ProductPrecision(); p < 0.5 {
		t.Errorf("product precision = %.3f", p)
	}
	if rep.ProductPrecision() > rep.AttributePrecision() {
		t.Error("strict product precision cannot exceed attribute precision")
	}
	if len(rep.Grades) != rep.Products {
		t.Errorf("grades = %d, products = %d", len(rep.Grades), rep.Products)
	}
}

func TestGradeByTopLevelTable3Shape(t *testing.T) {
	ds, products := pipelineRun(t)
	reports := GradeByTopLevel(products, ds.Truth, ds.Universe, ds.Catalog)
	if len(reports) != 4 {
		t.Fatalf("top-level reports = %d, want 4", len(reports))
	}
	byName := make(map[string]CategoryReport)
	for _, r := range reports {
		byName[r.TopLevel] = r
	}
	comp, okC := byName["Computing"]
	furn, okF := byName["Home Furnishings"]
	if !okC || !okF {
		t.Fatalf("missing domains: %v", byName)
	}
	// Table 3's structural effect: Computing products carry more
	// attributes than Furnishing products.
	if comp.AvgAttrsPerProduct() <= furn.AvgAttrsPerProduct() {
		t.Errorf("avg attrs: computing %.2f <= furnishing %.2f",
			comp.AvgAttrsPerProduct(), furn.AvgAttrsPerProduct())
	}
}

func TestGradeRecallTable4Shape(t *testing.T) {
	ds, products := pipelineRun(t)
	heavy, light := GradeRecall(products, ds.Truth, ds.Universe, 10)
	if heavy.Products == 0 || light.Products == 0 {
		t.Skipf("need both buckets: heavy=%d light=%d", heavy.Products, light.Products)
	}
	// Table 4's effect: more offers -> larger evidence pool.
	if heavy.AvgPoolSize <= light.AvgPoolSize {
		t.Errorf("pool: heavy %.1f <= light %.1f", heavy.AvgPoolSize, light.AvgPoolSize)
	}
	if heavy.AttributeRecall == 0 || light.AttributeRecall == 0 {
		t.Errorf("recall: heavy %.3f light %.3f", heavy.AttributeRecall, light.AttributeRecall)
	}
}

func TestGradeSynthesisUnresolvable(t *testing.T) {
	ds, _ := pipelineRun(t)
	fake := []fusion.Synthesized{{
		CategoryID: "computing/hard-drives",
		Key:        "NOSUCHKEY999",
		KeyAttr:    catalog.AttrMPN,
		Spec:       catalog.Spec{{Name: "Brand", Value: "X"}},
	}}
	rep := GradeSynthesis(fake, ds.Truth, ds.Universe)
	if rep.UnresolvedProducts != 1 || rep.CorrectPairs != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestMaxCoverageConsistentWithCurve(t *testing.T) {
	// The exact scan and the gridded curve must agree wherever the grid
	// has a point: curve precision at each point k equals the running
	// precision the scan uses.
	scored := scoredFixture()
	truth := truthFixture()
	opts := CurveOptions{ExcludeNameIdentity: true, Points: 10}
	pts := PrecisionAtCoverage(scored, truth, opts)
	for _, pt := range pts {
		exact := MaxCoverageAtPrecision(scored, truth, opts, pt.Precision)
		if exact < pt.Coverage {
			t.Errorf("MaxCoverage(%.3f) = %d < curve coverage %d", pt.Precision, exact, pt.Coverage)
		}
	}
	// And the exact scan at precision 1.0 finds the clean head prefix.
	if got := MaxCoverageAtPrecision(scored, truth, opts, 1.0); got != 2 {
		t.Errorf("MaxCoverage(1.0) = %d, want 2 (two true candidates lead)", got)
	}
}

func TestMaxCoverageAtPrecisionUnsortedInput(t *testing.T) {
	// The helper must not rely on the caller's ordering.
	scored := scoredFixture()
	reversed := make([]correspond.Scored, len(scored))
	for i, sc := range scored {
		reversed[len(scored)-1-i] = sc
	}
	opts := CurveOptions{ExcludeNameIdentity: true}
	a := MaxCoverageAtPrecision(scored, truthFixture(), opts, 0.8)
	b := MaxCoverageAtPrecision(reversed, truthFixture(), opts, 0.8)
	if a != b {
		t.Errorf("order dependence: %d vs %d", a, b)
	}
}
