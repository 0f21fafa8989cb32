package prodsynth

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5) — one benchmark per artifact — plus the ablation sweeps
// of internal/experiments and end-to-end phase benchmarks. Quality numbers
// are attached to each benchmark via b.ReportMetric, so a single
//
//	go test -bench=. -benchmem
//
// run prints both the cost (ns/op, allocs) and the reproduced metrics
// (precision, coverage) side by side. The README's "Benchmarks" section
// lists this and the other benchmark commands.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/experiments"
	"prodsynth/internal/fusion"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
)

// benchGen is the marketplace used by the benchmarks: large enough for the
// paper's effects to be visible, small enough for -bench runs to stay
// interactive.
var benchGen = synth.Config{
	Seed:                1,
	CategoriesPerDomain: 4,
	ProductsPerCategory: 60,
	Merchants:           60,
}

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvVal, benchEnvErr = experiments.Setup(context.Background(), benchGen, core.Config{})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// BenchmarkTable2EndToEnd reproduces Table 2: full pipeline quality.
func BenchmarkTable2EndToEnd(b *testing.B) {
	env := benchEnv(b)
	var r experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(env)
	}
	b.ReportMetric(r.AttributePrec, "attr-precision")
	b.ReportMetric(r.ProductPrec, "product-precision")
	b.ReportMetric(float64(r.Products), "products")
	b.ReportMetric(float64(r.AttributePairs), "attribute-pairs")
}

// BenchmarkTable3PerCategory reproduces Table 3: per top-level category.
func BenchmarkTable3PerCategory(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rs := experiments.Table3(env)
		for _, r := range rs {
			b.ReportMetric(r.AvgAttrsPerProduct(), shorten(r.TopLevel)+"-avg-attrs")
			b.ReportMetric(r.ProductPrecision(), shorten(r.TopLevel)+"-product-prec")
		}
	}
}

// BenchmarkTable4Recall reproduces Table 4: recall by offer-set size.
func BenchmarkTable4Recall(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		heavy, light := experiments.Table4(env)
		b.ReportMetric(heavy.AttributeRecall, "recall-ge10")
		b.ReportMetric(light.AttributeRecall, "recall-lt10")
		b.ReportMetric(heavy.AttributePrecision, "precision-ge10")
		b.ReportMetric(light.AttributePrecision, "precision-lt10")
	}
}

// benchFigure runs one figure builder and reports each system's exact
// coverage at precision 0.85.
func benchFigure(b *testing.B, build func(*experiments.Env) (*experiments.Figure, error)) {
	env := benchEnv(b)
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = build(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range fig.Names {
		b.ReportMetric(float64(fig.CoverageAt(name, 0.85)), "cov@0.85-"+shorten(name))
	}
}

func shorten(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '(', ')', '\t', '&', '§':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFigure6SingleFeature reproduces Figure 6.
func BenchmarkFigure6SingleFeature(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFigure7NoHistory reproduces Figure 7.
func BenchmarkFigure7NoHistory(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8Baselines reproduces Figure 8.
func BenchmarkFigure8Baselines(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9ComaDelta reproduces Figure 9.
func BenchmarkFigure9ComaDelta(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkAblationDropFeature sweeps drop-one-feature retraining.
func BenchmarkAblationDropFeature(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationDropFeature(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Cov90), "cov@0.9-"+shorten(r.Name))
	}
}

// BenchmarkAblationFusion compares fusion strategies.
func BenchmarkAblationFusion(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationFusion(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Metric1, "attr-prec-"+shorten(r.Name))
	}
}

// BenchmarkAblationClusterKeys compares clustering key sets.
func BenchmarkAblationClusterKeys(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationClusterKeys(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Metric2, "products-"+shorten(r.Name))
	}
}

// BenchmarkOfflineLearning measures the offline phase alone on a fresh
// marketplace (generation excluded from the timed region).
func BenchmarkOfflineLearning(b *testing.B) {
	ds := synth.Generate(benchGen)
	fetcher := core.MapFetcher(ds.Pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.HistoricalOffers))/float64(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}

// BenchmarkRuntimePipeline measures the runtime phase alone.
func BenchmarkRuntimePipeline(b *testing.B) {
	env := benchEnv(b)
	fetcher := core.MapFetcher(env.Dataset.Pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunRuntime(context.Background(), env.Dataset.Catalog, env.Offline, env.Dataset.IncomingOffers, fetcher, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(env.Dataset.IncomingOffers))/float64(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}

// ---------------------------------------------------------------------------
// Cold vs warm index benchmarks: the payoff of the shared category-index
// registry. "Cold" hands the matcher a fresh registry every iteration —
// the seed behavior, where every Matcher.Run rebuilt each category's index
// (and before the registry, every worker goroutine rebuilt it again). "Warm"
// shares one registry across iterations — the batch/serving steady state.

// expGen is the ExperimentMarketplaceConfig-scale marketplace for the
// end-to-end warm/cold comparison.
var (
	expGenOnce sync.Once
	expGenDS   *synth.Dataset
)

func experimentDataset() *synth.Dataset {
	expGenOnce.Do(func() {
		cfg := synth.ExperimentConfig()
		cfg.Seed = 1
		expGenDS = synth.Generate(cfg)
	})
	return expGenDS
}

// matcherBenchInput is one serving-shaped wave: a 500-offer batch against
// the full experiment-scale catalog. Small batches against a large catalog
// are where index construction dominates — the seed paid it per worker per
// run; the registry pays it once ever.
func matcherBenchInput(ds *synth.Dataset) *offer.Set {
	n := 500
	if n > len(ds.HistoricalOffers) {
		n = len(ds.HistoricalOffers)
	}
	return offer.NewSet(ds.HistoricalOffers[:n])
}

// BenchmarkMatcherSeedPerWorkerRebuild reproduces the seed's matching
// cost model: each of the 8 workers holds private per-category state, so
// every worker rebuilds the index of every category its chunk touches, on
// every run. (Implemented as 8 parallel single-worker Matchers, each with
// its own fresh registry — exactly the per-goroutine caches the seed kept.)
func BenchmarkMatcherSeedPerWorkerRebuild(b *testing.B) {
	ds := experimentDataset()
	set := matcherBenchInput(ds)
	all := set.All()
	const workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		chunk := (len(all) + workers - 1) / workers
		for start := 0; start < len(all); start += chunk {
			end := start + chunk
			if end > len(all) {
				end = len(all)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				m := match.Matcher{Workers: 1, Registry: match.NewRegistry()}
				m.Run(ds.Catalog, offer.NewSet(all[lo:hi]))
			}(start, end)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(set.Len())/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}

// BenchmarkMatcherColdIndex measures Matcher.Run with a fresh shared
// registry per iteration: every category index is rebuilt once per run
// (already W× better than the seed's per-worker rebuilds).
func BenchmarkMatcherColdIndex(b *testing.B) {
	ds := experimentDataset()
	set := matcherBenchInput(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := match.Matcher{Workers: 8, Registry: match.NewRegistry()}
		if ms := m.Run(ds.Catalog, set); ms.Len() == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(set.Len())/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}

// BenchmarkMatcherWarmIndex measures Matcher.Run against a warm registry:
// category indexes are built once before the timer and reused by every
// iteration.
func BenchmarkMatcherWarmIndex(b *testing.B) {
	ds := experimentDataset()
	set := matcherBenchInput(ds)
	m := match.Matcher{Workers: 8, Registry: match.NewRegistry()}
	m.Run(ds.Catalog, set) // warm the registry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := m.Run(ds.Catalog, set); ms.Len() == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(set.Len())/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}

// growthBenchSetup builds a private single-category store (so catalog
// mutation cannot leak into the shared experiment dataset) plus a batch
// of offers against it, for the AddProduct → re-match benchmarks.
func growthBenchSetup(b *testing.B, products, offers int) (*catalog.Store, *offer.Set) {
	b.Helper()
	st := catalog.NewStore()
	cat := catalog.Category{ID: "hd", Schema: catalog.Schema{Attributes: []catalog.Attribute{
		{Name: "Brand"}, {Name: "Model"}, {Name: catalog.AttrMPN, Kind: catalog.KindIdentifier},
	}}}
	if err := st.AddCategory(cat); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < products; i++ {
		if err := st.AddProduct(catalog.Product{ID: fmt.Sprintf("p%d", i), CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Seagate"},
				{Name: "Model", Value: fmt.Sprintf("Model %d", i)},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("MPN%07d", i)},
			}}); err != nil {
			b.Fatal(err)
		}
	}
	offs := make([]offer.Offer, offers)
	for i := range offs {
		offs[i] = offer.Offer{ID: fmt.Sprintf("o%d", i), Merchant: "m", CategoryID: "hd",
			Title: fmt.Sprintf("Seagate Model %d MPN%07d hard drive", i%products, i%products)}
	}
	return st, offer.NewSet(offs)
}

// BenchmarkMatcherIncrementalUpdate measures the catalog-growth steady
// state: every iteration inserts one product (bumping the category
// version) and re-matches a 500-offer batch, so the registry applies a
// posting-list delta per iteration instead of re-tokenizing the 5000-
// product category.
func BenchmarkMatcherIncrementalUpdate(b *testing.B) {
	st, set := growthBenchSetup(b, 5000, 500)
	reg := match.NewRegistry()
	m := match.Matcher{Workers: 8, Registry: reg}
	m.Run(st, set) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AddProduct(catalog.Product{ID: fmt.Sprintf("new%d", i), CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Seagate"},
				{Name: "Model", Value: fmt.Sprintf("New Model %d", i)},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("NEW%07d", i)},
			}}); err != nil {
			b.Fatal(err)
		}
		m.Run(st, set)
	}
	b.StopTimer()
	if reg.Deltas() < int64(b.N) {
		b.Fatalf("Deltas = %d over %d iterations; growth did not take the incremental path", reg.Deltas(), b.N)
	}
}

// BenchmarkMatcherRebuildAfterAdd is the same workload on a fresh
// registry every iteration — the cost model incremental updates replace
// (full category re-tokenization after every insertion).
func BenchmarkMatcherRebuildAfterAdd(b *testing.B) {
	st, set := growthBenchSetup(b, 5000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AddProduct(catalog.Product{ID: fmt.Sprintf("new%d", i), CategoryID: "hd",
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Seagate"},
				{Name: "Model", Value: fmt.Sprintf("New Model %d", i)},
				{Name: catalog.AttrMPN, Value: fmt.Sprintf("NEW%07d", i)},
			}}); err != nil {
			b.Fatal(err)
		}
		m := match.Matcher{Workers: 8, Registry: match.NewRegistry()}
		m.Run(st, set)
	}
}

// benchBatches splits the experiment-scale incoming offers into n batches.
func benchBatches(ds *synth.Dataset, n int) [][]Offer {
	batches := make([][]Offer, n)
	for i, o := range ds.IncomingOffers {
		batches[i%n] = append(batches[i%n], o)
	}
	return batches
}

// benchSystem learns once over the experiment-scale marketplace and is
// shared by the batch benchmarks.
var (
	benchSysOnce sync.Once
	benchSysVal  *System
	benchSysErr  error
)

func benchSystem(b *testing.B) *System {
	b.Helper()
	ds := experimentDataset()
	benchSysOnce.Do(func() {
		sys := New(ds.Catalog, Config{})
		benchSysErr = sys.Learn(ds.HistoricalOffers, MapFetcher(ds.Pages))
		benchSysVal = sys
	})
	if benchSysErr != nil {
		b.Fatal(benchSysErr)
	}
	return benchSysVal
}

// BenchmarkSynthesizeBatches runs the batch API over the experiment-scale
// incoming stream split into 8 waves, with warm offline state and warm
// indexes — the steady-state serving cost per offer.
func BenchmarkSynthesizeBatches(b *testing.B) {
	ds := experimentDataset()
	sys := benchSystem(b)
	batches := benchBatches(ds, 8)
	fetcher := MapFetcher(ds.Pages)
	if _, err := sys.SynthesizeBatches(batches, fetcher); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *BatchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sys.SynthesizeBatches(batches, fetcher)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.IncomingOffers))/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
	b.ReportMetric(float64(len(res.Total.Products)), "products")
}

// BenchmarkSynthesizeStream runs the streaming API over the same 8-wave
// split as BenchmarkSynthesizeBatches, with cross-batch cluster memory on
// — the continuous-feed serving cost per offer, including the per-wave
// re-fusion of extended clusters and the final merge.
func BenchmarkSynthesizeStream(b *testing.B) {
	ds := experimentDataset()
	sys := benchSystem(b)
	batches := benchBatches(ds, 8)
	fetcher := MapFetcher(ds.Pages)
	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		in := make(chan []Offer)
		out, err := sys.SynthesizeStream(context.Background(), in, fetcher, StreamOptions{Buffer: 1})
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for _, w := range batches {
				in <- w
			}
			close(in)
		}()
		for r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if r.Final {
				merged = len(r.Products)
			}
		}
	}
	b.ReportMetric(float64(len(ds.IncomingOffers))/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
	b.ReportMetric(float64(merged), "products")
}

// delayFetcher simulates crawl latency: every Fetch sleeps before serving
// from the in-memory map — the workload shape where wave preparation is
// fetch-bound and cross-wave pipelining has something to overlap.
type delayFetcher struct {
	inner MapFetcher
	d     time.Duration
}

func (f delayFetcher) Fetch(url string) (string, error) {
	time.Sleep(f.d)
	return f.inner.Fetch(url)
}

// delayStrategy simulates an expensive fusion strategy (every Fuse call
// sleeps), so the fuse stage carries real wall time for the prepare stage
// of the next wave to hide.
type delayStrategy struct {
	inner fusion.Strategy
	d     time.Duration
}

func (s delayStrategy) Fuse(candidates []string) string {
	time.Sleep(s.d)
	return s.inner.Fuse(candidates)
}

// pipelinedBenchSetup learns a System over the small test marketplace
// (fast fetcher — learning cost is not the subject) and returns the slow
// fetcher + slow fusion configuration the pipelined benchmarks stream
// with.
var (
	pipeBenchOnce sync.Once
	pipeBenchDS   *synth.Dataset
	pipeBenchErr  error
)

func pipelinedBenchDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	pipeBenchOnce.Do(func() {
		pipeBenchDS = synth.Generate(synth.Config{
			Seed:                21,
			CategoriesPerDomain: 2,
			ProductsPerCategory: 20,
			Merchants:           20,
		})
	})
	if pipeBenchErr != nil {
		b.Fatal(pipeBenchErr)
	}
	return pipeBenchDS
}

// benchStreamSlow runs the slow-fetcher workload once through
// SynthesizeStream and returns the merged product count. 16 waves, so
// the pipeline has many prepare/fuse pairs to overlap and the
// un-overlappable ends (the first prepare, the final merge fuse) are a
// small fraction of the run.
func benchStreamSlow(b *testing.B, sys *System, ds *synth.Dataset, fetcher PageFetcher) int {
	b.Helper()
	waves := benchBatches(ds, 16)
	in := make(chan []Offer)
	out, err := sys.SynthesizeStream(context.Background(), in, fetcher, StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for _, w := range waves {
			in <- w
		}
		close(in)
	}()
	merged := 0
	for r := range out {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if r.Final {
			merged = len(r.Products)
		}
	}
	return merged
}

// BenchmarkSynthesizeStreamPipelined measures the streaming pipeline on a
// slow-fetcher, slow-fusion workload — 16 waves where wave preparation
// (page fetches) and cluster fusion both carry real wall time, so a
// pipelined runtime can overlap wave n+1's prepare with wave n's fuse.
// Compare against BenchmarkSynthesizeStreamBarrier, which runs the same
// workload with cross-wave pipelining disabled (the pre-pipeline
// execution model: each wave fully fuses before the next is touched).
func BenchmarkSynthesizeStreamPipelined(b *testing.B) {
	ds := pipelinedBenchDataset(b)
	model, err := Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Fusion: delayStrategy{inner: fusion.Centroid{}, d: 200 * time.Microsecond}}
	sys := NewSystem(ds.Catalog, model, WithConfig(cfg))
	fetcher := delayFetcher{inner: MapFetcher(ds.Pages), d: 5 * time.Millisecond}
	benchStreamSlow(b, sys, ds, fetcher) // warm the match indexes
	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		merged = benchStreamSlow(b, sys, ds, fetcher)
	}
	b.ReportMetric(float64(merged), "products")
}

// BenchmarkSynthesizeStreamBarrier is the pipelining baseline: the exact
// workload of BenchmarkSynthesizeStreamPipelined with cross-wave
// pipelining disabled (Config.StageBuffer < 0), so each wave fully fuses
// before the next wave's prepare starts. The delta between the two is the
// wall time pipelining hides.
func BenchmarkSynthesizeStreamBarrier(b *testing.B) {
	ds := pipelinedBenchDataset(b)
	model, err := Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Fusion: delayStrategy{inner: fusion.Centroid{}, d: 200 * time.Microsecond}}
	sys := NewSystem(ds.Catalog, model, WithConfig(cfg), WithStageBuffer(-1))
	fetcher := delayFetcher{inner: MapFetcher(ds.Pages), d: 5 * time.Millisecond}
	benchStreamSlow(b, sys, ds, fetcher) // warm the match indexes
	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		merged = benchStreamSlow(b, sys, ds, fetcher)
	}
	b.ReportMetric(float64(merged), "products")
}

// BenchmarkSynthesizeOneShotCold measures one runtime pass per iteration
// with a truly cold matcher registry: the offline state is learned once
// (untimed, in its own registry), and each timed run gets a fresh registry
// so every category index is rebuilt — the cold half of the cold-vs-warm
// end-to-end comparison. Learn must not share the per-iteration registry,
// or it would warm the indexes the timed region is supposed to build.
func BenchmarkSynthesizeOneShotCold(b *testing.B) {
	ds := experimentDataset()
	fetcher := core.MapFetcher(ds.Pages)
	learnCfg := core.Config{}
	learnCfg.Matcher.Registry = match.NewRegistry()
	offline, err := core.RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, learnCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{}
		cfg.Matcher.Registry = match.NewRegistry()
		if _, err := core.RunRuntime(context.Background(), ds.Catalog, offline, ds.IncomingOffers, fetcher, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.IncomingOffers))/(b.Elapsed().Seconds()/float64(b.N)), "offers/s")
}
