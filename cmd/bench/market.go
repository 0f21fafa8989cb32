package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"prodsynth"
	"prodsynth/internal/correspond"
	"prodsynth/internal/eval"
	"prodsynth/internal/serve"
	"prodsynth/internal/synth"
)

// market is the one marketplace every workload runs on, with the model
// learned from its historical offers and a System serving its catalog.
type market struct {
	ds    *prodsynth.Marketplace
	pages prodsynth.MapFetcher
	model *prodsynth.Model
	sys   *prodsynth.System
}

// marketConfig is synth.ExperimentConfig with the run's seed — the only
// scale in the repository above the noise floor (seed 1: 7 902 historical
// and 8 253 incoming offers, 2 744 catalog products). The smoke scale
// exists for bench_test.go only: checks run, numbers are discarded.
func (b *bench) marketConfig() synth.Config {
	cfg := synth.ExperimentConfig()
	if b.smoke {
		cfg = synth.Config{CategoriesPerDomain: 2, ProductsPerCategory: 20, Merchants: 24}
	}
	cfg.Seed = b.seed
	return cfg
}

// feedOffers is the length both offer feeds are cut to. The generator's
// feeds run from 7 300 to 9 000 offers depending on the seed, which put a
// tenth of spread on every absolute time before any noise; with the feeds
// cut, every seed's run does the same amount of work. The marketplace
// itself (catalog, merchants, pages, truth) is never trimmed.
const feedOffers = 7000

// sample keeps n of the offers, chosen by rng, in feed order.
func sample(rng *rand.Rand, offers []prodsynth.Offer, n int) []prodsynth.Offer {
	if len(offers) <= n {
		return offers
	}
	keep := rng.Perm(len(offers))[:n]
	sort.Ints(keep)
	out := make([]prodsynth.Offer, n)
	for i, at := range keep {
		out[i] = offers[at]
	}
	return out
}

// generate builds the marketplace without learning.
func (b *bench) generate() *market {
	ds := prodsynth.GenerateMarketplace(b.marketConfig())
	if !b.smoke {
		rng := rand.New(rand.NewSource(b.seed))
		ds.HistoricalOffers = sample(rng, ds.HistoricalOffers, feedOffers)
		ds.IncomingOffers = sample(rng, ds.IncomingOffers, feedOffers)
	}
	b.cleanup = append(b.cleanup, func() { prodsynth.ReleaseMatchState(ds.Catalog) })
	return &market{ds: ds, pages: prodsynth.MapFetcher(ds.Pages)}
}

// learn runs the offline phase and returns how long it took and how many
// heap objects it allocated.
func (m *market) learn(ctx context.Context) (model *prodsynth.Model, seconds float64, mallocs uint64, err error) {
	before := mallocCount()
	start := time.Now()
	model, err = prodsynth.Learn(ctx, m.ds.Catalog, m.ds.HistoricalOffers, m.pages)
	return model, time.Since(start).Seconds(), mallocCount() - before, err
}

// newMarket is the set-up every runtime workload shares: generate, then
// Learn. The Learn it pays is also that workload's learn_s sample.
func (b *bench) newMarket(ctx context.Context) (*market, error) {
	m := b.generate()
	model, seconds, _, err := m.learn(ctx)
	if err != nil {
		return nil, fmt.Errorf("learn: %w", err)
	}
	b.ops(1, 0)
	b.put("learn_s", "s", seconds)
	m.use(model)
	b.logf("marketplace seed %d: %d historical / %d incoming offers, %d pages, %d catalog products; learned in %.2fs",
		b.seed, len(m.ds.HistoricalOffers), len(m.ds.IncomingOffers), len(m.ds.Pages), m.ds.Catalog.NumProducts(), seconds)
	return m, nil
}

func (m *market) use(model *prodsynth.Model) {
	m.model = model
	m.sys = prodsynth.NewSystem(m.ds.Catalog, model)
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// productDigest is the identity of a synthesis output: SHA-256 of the
// products' wire JSON, the same bytes the daemon would answer with.
func productDigest(products []prodsynth.Synthesized) string {
	data, err := json.Marshal(serve.WireProducts(products))
	if err != nil {
		panic(err) // strings and slices of strings: cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// reference runs one untimed one-shot synthesis over all incoming offers.
// Every workload does this after set-up: its digest is what the
// workload's own outputs are checked against, and grading it gives the
// three quality metrics and the correspondence coverage, so a speed-up
// that changes behaviour shows in the same run on every workload. The
// probes for the metrics the workload does not own follow at once.
func (b *bench) reference(ctx context.Context, m *market, owned ...string) (*prodsynth.Result, error) {
	res, err := m.sys.SynthesizeContext(ctx, m.ds.IncomingOffers, m.pages)
	if err != nil {
		return nil, fmt.Errorf("reference one-shot: %w", err)
	}
	b.ops(1, 0)
	b.digest("oneshot_products", productDigest(res.Products))
	b.check(len(res.Fetch.FeedOnly) == 0, "fetch.feed_only = %d on in-memory pages", len(res.Fetch.FeedOnly))

	truth := m.ds.Truth
	grade := eval.GradeSynthesis(res.Products, truth, m.ds.Universe)
	heavy, _ := eval.GradeRecall(res.Products, truth, m.ds.Universe, 10)
	b.put("attr_precision", "ratio", grade.AttributePrecision())
	b.put("product_precision", "ratio", grade.ProductPrecision())
	b.put("attr_recall_heavy", "ratio", heavy.AttributeRecall)
	covered, possible := m.coverageAtP90()
	b.put("corr_coverage_at_p90", "ratio", float64(covered)/float64(possible))
	b.logf("correspondences: %d of %d true ones covered at precision 0.9", covered, possible)
	err = b.probe(ctx, m, owned)
	b.calibrate()
	return res, err
}

// coverageAtP90 is Figure 6's reading: how many correspondences the
// classifier finds before its precision drops below 0.9, name identities
// excluded (they are the training signal, not a result). It is reported
// as a share of the true correspondences among the candidates, because
// the count itself moves by a tenth from one seed's marketplace to the
// next.
func (m *market) coverageAtP90() (covered, possible int) {
	truth := func(c correspond.Candidate) bool {
		return m.ds.Truth.IsCorrespondence(c.Key, c.CatalogAttr, c.MerchantAttr)
	}
	scored := m.model.ScoredCandidates()
	for _, sc := range scored {
		if !sc.NameIdentity() && truth(sc.Candidate) {
			possible++
		}
	}
	return eval.MaxCoverageAtPrecision(scored, truth, eval.CurveOptions{ExcludeNameIdentity: true}, 0.9), possible
}

// Request sizes of the serving mix. Two sizes because the fixed cost per
// request and the cost per offer move differently.
const (
	smallOffers = 16
	largeOffers = 256
	// largeShare of the requests are large, the rest small.
	largeShare = 0.2
	// Distinct request bodies per size; the seeded order draws from them.
	smallTemplates = 64
	largeTemplates = 16
)

// request is one synthesis request of the serving mix: a run of
// consecutive incoming offers with exactly their own pages.
type request struct {
	large  bool
	offers []prodsynth.Offer
	pages  prodsynth.MapFetcher
	wire   serve.SynthesizeRequest
}

// requestMix is the seeded request population and the order requests are
// drawn in. The same mix feeds serve_http over HTTP and, on the other
// workloads, the library-path probe.
type requestMix struct {
	small, large []*request
	rng          *rand.Rand
}

func (b *bench) newRequestMix(m *market) *requestMix {
	rng := rand.New(rand.NewSource(b.seed))
	offers := m.ds.IncomingOffers
	cut := func(size, count int, large bool) []*request {
		size = min(size, len(offers)) // the smoke marketplace is smaller than a large request
		chunks := len(offers) / size
		var out []*request
		for _, c := range rng.Perm(chunks)[:min(count, chunks)] {
			r := &request{large: large, offers: offers[c*size : (c+1)*size], pages: prodsynth.MapFetcher{}}
			for _, o := range r.offers {
				if page, ok := m.ds.Pages[o.URL]; ok {
					r.pages[o.URL] = page
				}
			}
			r.wire = serve.SynthesizeRequest{Offers: serve.WireOffers(r.offers), Pages: serve.WirePages(r.pages)}
			out = append(out, r)
		}
		return out
	}
	return &requestMix{small: cut(smallOffers, smallTemplates, false), large: cut(largeOffers, largeTemplates, true), rng: rng}
}

// next draws the next request: 20 % large, 80 % small, seeded order.
func (x *requestMix) next() *request {
	if x.rng.Float64() < largeShare {
		return x.large[x.rng.Intn(len(x.large))]
	}
	return x.small[x.rng.Intn(len(x.small))]
}
