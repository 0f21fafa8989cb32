package experiments

import (
	"context"
	"fmt"
	"io"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/eval"
	"prodsynth/internal/extract"
)

// The ablations below probe the pipeline's design choices (README,
// "Pipeline (paper §3 / §4 → packages)"), beyond the paper's own
// Figures 6-7: how much each of the six features
// contributes, whether the §7 name-feature extension helps under automatic
// labeling (it does not — see AblationNameFeature), what centroid fusion
// buys over exact majority voting, how the clustering key set affects
// product formation, and what the bullet-list extractor (the paper's
// acknowledged coverage gap) adds.

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Name string
	// Cov90 and Cov80 are exact coverages at precision 0.9 / 0.8 for
	// correspondence ablations; Metric1/Metric2 carry experiment-specific
	// values for pipeline ablations.
	Cov90, Cov80     int
	Metric1, Metric2 float64
}

// AblationDropFeature retrains the classifier with each feature zeroed in
// turn and reports correspondence quality, plus the full model as baseline.
func AblationDropFeature(ctx context.Context, e *Env) ([]AblationRow, error) {
	truth := e.Truth()
	rows := []AblationRow{{
		Name:  "all six features",
		Cov90: eval.MaxCoverageAtPrecision(e.Offline.Scored, truth, CurveOpts, 0.9),
		Cov80: eval.MaxCoverageAtPrecision(e.Offline.Scored, truth, CurveOpts, 0.8),
	}}
	for _, feat := range correspond.FeatureNames {
		dropped := e.Offline.Features.DropFeature(feat)
		model, err := correspond.Train(dropped, correspond.TrainOptions{})
		if err != nil {
			return nil, fmt.Errorf("ablation drop %s: %w", feat, err)
		}
		scored := model.ScoreAll(dropped)
		rows = append(rows, AblationRow{
			Name:  "without " + feat,
			Cov90: eval.MaxCoverageAtPrecision(scored, truth, CurveOpts, 0.9),
			Cov80: eval.MaxCoverageAtPrecision(scored, truth, CurveOpts, 0.8),
		})
	}
	return rows, nil
}

// AblationNameFeature compares the classifier with and without the lexical
// name-similarity feature (§7 future work). Under the automatic training
// set of §3.2 the name feature equals 1 on every positive example, so the
// classifier collapses toward a name matcher — this ablation quantifies the
// damage.
func AblationNameFeature(ctx context.Context, e *Env) ([]AblationRow, error) {
	truth := e.Truth()
	rows := []AblationRow{{
		Name:  "distributional features only (paper)",
		Cov90: eval.MaxCoverageAtPrecision(e.Offline.Scored, truth, CurveOpts, 0.9),
		Cov80: eval.MaxCoverageAtPrecision(e.Offline.Scored, truth, CurveOpts, 0.8),
	}}
	ft := correspond.ComputeFeatures(e.Dataset.Catalog, e.Offline.Offers, e.Offline.Matches,
		correspond.FeatureOptions{UseMatches: true, IncludeNameFeature: true})
	model, err := correspond.Train(ft, correspond.TrainOptions{})
	if err != nil {
		return nil, err
	}
	scored := model.ScoreAll(ft)
	rows = append(rows, AblationRow{
		Name:  "with name-similarity feature",
		Cov90: eval.MaxCoverageAtPrecision(scored, truth, CurveOpts, 0.9),
		Cov80: eval.MaxCoverageAtPrecision(scored, truth, CurveOpts, 0.8),
	})
	return rows, nil
}

// AblationFusion compares value-fusion strategies on the same clusters.
// Metric1 = attribute precision, Metric2 = product precision.
func AblationFusion(ctx context.Context, e *Env) ([]AblationRow, error) {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"centroid generalization (paper)", e.Config},
		{"exact majority voting", withFusion(e.Config, majorityVote{})},
	}
	return e.pipelineAblation(ctx, configs)
}

type majorityVote struct{}

func (majorityVote) Fuse(candidates []string) string {
	counts := make(map[string]int)
	best, bestN := "", -1
	for _, v := range candidates {
		counts[v]++
	}
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func withFusion(cfg core.Config, s interface{ Fuse([]string) string }) core.Config {
	cfg.Fusion = s
	return cfg
}

// AblationClusterKeys compares clustering key sets.
// Metric1 = attribute precision, Metric2 = products synthesized.
func AblationClusterKeys(ctx context.Context, e *Env) ([]AblationRow, error) {
	mk := func(keys ...string) core.Config {
		cfg := e.Config
		cfg.ClusterKeys = keys
		return cfg
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"UPC + MPN (paper)", e.Config},
		{"UPC only", mk(catalog.AttrUPC)},
		{"MPN only", mk(catalog.AttrMPN)},
	}
	return e.pipelineAblation(ctx, configs)
}

// AblationExtraction compares the paper's table-only extractor with the
// bullet-list extension. Metric1 = attribute precision, Metric2 = products.
// Both phases rerun because extraction feeds offline learning too.
func AblationExtraction(ctx context.Context, e *Env) ([]AblationRow, error) {
	bullet := e.Config
	bullet.Extraction = extract.Options{
		MaxValueLen:        extract.DefaultOptions.MaxValueLen,
		IncludeBulletLists: true,
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"tables only (paper)", e.Config},
		{"tables + bullet lists", bullet},
	}
	var rows []AblationRow
	for _, c := range configs {
		fetcher := core.MapFetcher(e.Dataset.Pages)
		off, err := core.RunOffline(ctx, e.Dataset.Catalog, e.Dataset.HistoricalOffers, fetcher, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", c.name, err)
		}
		run, err := core.RunRuntime(ctx, e.Dataset.Catalog, off, e.Dataset.IncomingOffers, fetcher, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", c.name, err)
		}
		rep := eval.GradeSynthesis(run.Products, e.Dataset.Truth, e.Dataset.Universe)
		rows = append(rows, AblationRow{
			Name:    c.name,
			Metric1: rep.AttributePrecision(),
			Metric2: float64(rep.Products),
		})
	}
	return rows, nil
}

// pipelineAblation reruns the runtime phase under each configuration,
// reusing the already-learned correspondences.
func (e *Env) pipelineAblation(ctx context.Context, configs []struct {
	name string
	cfg  core.Config
}) ([]AblationRow, error) {
	var rows []AblationRow
	for _, c := range configs {
		run, err := core.RunRuntime(ctx, e.Dataset.Catalog, e.Offline, e.Dataset.IncomingOffers,
			core.MapFetcher(e.Dataset.Pages), c.cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", c.name, err)
		}
		rep := eval.GradeSynthesis(run.Products, e.Dataset.Truth, e.Dataset.Universe)
		rows = append(rows, AblationRow{
			Name:    c.name,
			Metric1: rep.AttributePrecision(),
			Metric2: float64(rep.Products),
		})
	}
	return rows, nil
}

// RenderAblation writes an ablation sweep. Correspondence sweeps show
// coverage columns; pipeline sweeps show their metrics.
func RenderAblation(w io.Writer, title string, rows []AblationRow, metricNames ...string) {
	fmt.Fprintf(w, "== Ablation: %s ==\n", title)
	if len(metricNames) == 2 {
		fmt.Fprintf(w, "%-40s %-16s %s\n", "configuration", metricNames[0], metricNames[1])
		for _, r := range rows {
			fmt.Fprintf(w, "%-40s %-16.3f %.0f\n", r.Name, r.Metric1, r.Metric2)
		}
	} else {
		fmt.Fprintf(w, "%-40s %-16s %s\n", "configuration", "coverage@0.9", "coverage@0.8")
		for _, r := range rows {
			fmt.Fprintf(w, "%-40s %-16d %d\n", r.Name, r.Cov90, r.Cov80)
		}
	}
	fmt.Fprintln(w)
}
