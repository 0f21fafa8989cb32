// Package core orchestrates the end-to-end product synthesis pipeline of
// Figure 4 in the paper:
//
//	Offline Learning:
//	  historical offers → web-page attribute extraction → historical
//	  offer-to-product matching → distributional feature computation →
//	  automatic training-set construction → correspondence classifier →
//	  attribute correspondences
//
//	Run-Time Offer Processing:
//	  incoming offers → category classification (if missing) → web-page
//	  attribute extraction → schema reconciliation → clustering by key
//	  attribute → value fusion → new products
//
// The package wires the substrate packages together, parallelizes the
// per-offer stages, and reports the statistics the paper's §5.1 quotes.
//
// Concurrency model: per-category work — matching and schema
// reconciliation — fans out across a bounded worker pool (Config.Workers),
// one task per category, with results merged back in input order so output
// is identical for every worker count. Matching state is shared through
// the match package's index registry — sharded by category hash, so
// concurrent category tasks neither rebuild each other's indexes nor
// serialize on one registry lock. Clustering stays global (clusters may
// span categories when the category classifier errs on individual offers,
// §2); value fusion then fans out again, one task per cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prodsynth/internal/catalog"
	"prodsynth/internal/categorize"
	"prodsynth/internal/cluster"
	"prodsynth/internal/correspond"
	"prodsynth/internal/extract"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
)

// PageFetcher retrieves landing pages by URL. Production systems would
// back this with a crawler cache; tests and experiments use MapFetcher.
//
// A fetcher may additionally implement fetch.ContextPages
// (FetchContext(ctx, url)); the pipeline detects it by interface upgrade
// and threads the stage context through, so cancellation and per-attempt
// deadlines reach in-flight fetches instead of abandoning them. A plain
// Fetch is checked for cancellation before the call and allowed to
// finish once started. Fetchers that also implement fetch.CounterSource
// (fetch.Resilient does both) contribute exact per-run counters to the
// result's fetch report.
type PageFetcher interface {
	Fetch(url string) (html string, err error)
}

// MapFetcher serves pages from an in-memory map.
type MapFetcher map[string]string

// PageDoc is one landing page as it travels in page lists (dataset files,
// serving requests): a URL and its HTML body.
type PageDoc struct {
	URL  string
	HTML string
}

// ErrPageNotFound is returned by MapFetcher for unknown URLs.
var ErrPageNotFound = errors.New("core: page not found")

// ErrDuplicatePage is returned by MapFetcherFromDocs when the same URL
// appears twice with different bodies.
var ErrDuplicatePage = errors.New("core: duplicate page URL with conflicting body")

// MapFetcherFromDocs builds a MapFetcher from a page list, rejecting a URL
// that appears twice with distinct bodies instead of silently keeping the
// last one — the map literal's last-wins semantics would make synthesis
// output depend on input file or request-body ordering. Exact repeats
// (same URL, same body) are tolerated, since they are idempotent.
func MapFetcherFromDocs(docs []PageDoc) (MapFetcher, error) {
	m := make(MapFetcher, len(docs))
	for _, d := range docs {
		if prev, ok := m[d.URL]; ok && prev != d.HTML {
			return nil, fmt.Errorf("%w: %q", ErrDuplicatePage, d.URL)
		}
		m[d.URL] = d.HTML
	}
	return m, nil
}

// Fetch implements PageFetcher.
func (m MapFetcher) Fetch(url string) (string, error) {
	page, ok := m[url]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrPageNotFound, url)
	}
	return page, nil
}

// Config controls the pipeline.
type Config struct {
	// Extraction configures the web-page attribute extractor.
	Extraction extract.Options
	// Matcher configures historical offer-to-product matching. Set
	// Matcher.Registry to give the pipeline a private index cache with
	// its own sharding and LRU bound (match.NewRegistryWithOptions);
	// nil shares the process-wide default.
	Matcher match.Matcher
	// Features configures distributional feature computation.
	Features correspond.FeatureOptions
	// Train configures classifier training.
	Train correspond.TrainOptions
	// ScoreThreshold is the classifier probability above which a
	// candidate becomes a correspondence (default 0.5).
	ScoreThreshold float64
	// ClusterKeys overrides the clustering key attributes (§4 default:
	// UPC then Model Part Number).
	ClusterKeys []string
	// Fusion selects the value fusion strategy (default Centroid).
	// Fuse is called concurrently from the worker pool, one cluster per
	// call; implementations must be safe for concurrent use (stateless
	// strategies, like the provided ones, are).
	Fusion fusion.Strategy
	// Workers bounds the pipeline's worker pools (default 4): per-offer
	// extraction, the per-category fan-out for matching and
	// reconciliation, and the per-cluster fusion fan-out. It also seeds
	// Features.Workers when that is unset, and is split with the
	// matcher's per-offer parallelism unless Matcher.Workers is set
	// explicitly (see categoryMatcher). Output is identical for every
	// value.
	Workers int
	// KeepMatchedIncoming disables the runtime filter that excludes
	// incoming offers matching existing catalog products (§1: synthesis
	// targets offers that cannot be matched).
	KeepMatchedIncoming bool
	// StrictPages makes a landing-page fetch failure fatal to a run —
	// runtime (Synthesize, a batch, a stream wave) and offline (Learn)
	// alike. By default the pipeline tolerates crawl gaps — an offer
	// whose page cannot be fetched keeps its feed spec — and every
	// degraded offer is accounted in the result's fetch report, so
	// lenient mode is observable graceful degradation rather than
	// invisible data loss. Deployments that would rather fail a run (and
	// retry it) than learn or synthesize from feed specs alone set this;
	// pair it with a retrying fetcher (fetch.Policy) so a transient
	// flake does not abort a run a retry would have saved.
	StrictPages bool
	// Fetch is the resilience policy for landing-page fetches: per-attempt
	// deadlines, bounded retries with jittered backoff, a per-host circuit
	// breaker, and a concurrency gate (see fetch.Policy). The zero value
	// disables wrapping — fetch failures surface after a single attempt,
	// as before. The top-level entry points wrap the caller's PageFetcher
	// once per run (or once per stream), so breaker state and counters
	// span an entire batch sequence or wave sequence. Retries change when
	// a fetch runs, never what it returns, so output determinism is
	// unaffected; the breaker reacts to cross-offer ordering and is the
	// one knob that can make lenient-mode degradation timing-dependent
	// (see fetch.Policy's determinism note).
	Fetch fetch.Policy
	// Spill, when non-nil, gives each streaming run's cluster memory an
	// out-of-core backing store: clusters the LRU/idle bounds would seal
	// are parked in a store the factory opens (one per stream) and
	// revived when their keys reappear, keeping bounded-memory output
	// byte-identical to unbounded. Ignored by batch synthesis, which has
	// no cross-wave memory to bound.
	Spill cluster.SpillFactory
}

func (c Config) withDefaults() Config {
	if c.Extraction == (extract.Options{}) {
		c.Extraction = extract.DefaultOptions
	}
	if c.ScoreThreshold == 0 {
		c.ScoreThreshold = 0.5
	}
	if c.Fusion == nil {
		c.Fusion = fusion.Centroid{}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Features.Workers <= 0 {
		c.Features.Workers = c.Workers
	}
	c.Features.UseMatches = true
	return c
}

// runLimited executes jobs 0..n-1 on at most workers goroutines, pulling
// from a shared counter so unbalanced jobs (a huge category next to tiny
// ones) do not leave workers idle. Jobs must write only to their own slots.
//
// Cancellation is checked between jobs: once ctx is done, workers stop
// pulling new indexes, finish the job in hand, and the call returns
// ctx.Err(). Every worker goroutine is always joined before returning, so
// a cancelled pool leaks nothing; callers must treat a non-nil error as
// "results incomplete" and discard their slots.
func runLimited(ctx context.Context, n, workers int, job func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			job(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// fetchTally is the run-scoped account of extraction-stage fetch activity
// shared by the stage's workers. The fetch counters themselves come from
// the fetcher when it keeps them (fetch.CounterSource — fetch.Resilient
// does); the tally supplies what only the pipeline knows — which offers
// proceeded feed-only — plus a coarse one-attempt-per-offer counter
// fallback for plain fetchers.
type fetchTally struct {
	mu        sync.Mutex
	attempted int
	feedOnly  []string
}

// attempt counts one fetch operation started. nil-safe.
func (t *fetchTally) attempt() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// degraded records an offer that proceeded on feed spec alone. nil-safe.
func (t *fetchTally) degraded(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.feedOnly = append(t.feedOnly, id)
	t.mu.Unlock()
}

// report assembles the run's fetch report: exact counter deltas when the
// fetcher accounts itself (cs non-nil, snapshotted at before), the
// tally's coarse counters otherwise. FeedOnly is sorted so the report is
// independent of worker scheduling.
func (t *fetchTally) report(cs fetch.CounterSource, before fetch.Counters) fetch.Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rep fetch.Report
	if cs != nil {
		rep.Counters = cs.FetchCounters().Sub(before)
	} else {
		rep.Counters = fetch.Counters{
			Attempted: t.attempted,
			Attempts:  t.attempted,
			GaveUp:    len(t.feedOnly),
		}
	}
	if len(t.feedOnly) > 0 {
		rep.FeedOnly = append([]string(nil), t.feedOnly...)
		sort.Strings(rep.FeedOnly)
	}
	return rep
}

// counterSnapshot returns the fetcher's counter source and its current
// snapshot when it keeps counters, (nil, zero) otherwise. Counter deltas
// are per-run-exact because the entry points run extraction stages
// serially per run (waves prepare in input order, batches sequentially)
// against the one wrapped fetcher.
func counterSnapshot(pages PageFetcher) (fetch.CounterSource, fetch.Counters) {
	if cs, ok := pages.(fetch.CounterSource); ok {
		return cs, cs.FetchCounters()
	}
	return nil, fetch.Counters{}
}

// categorySlice names one category's offers by their positions in the
// enclosing slice (ascending, so gathering preserves input order).
type categorySlice struct {
	category string
	indices  []int
}

// partitionByCategory groups offer positions by category, categories
// sorted by ID for a deterministic task order.
func partitionByCategory(offers []offer.Offer) []categorySlice {
	byCat := make(map[string][]int)
	for i, o := range offers {
		byCat[o.CategoryID] = append(byCat[o.CategoryID], i)
	}
	parts := make([]categorySlice, 0, len(byCat))
	for cat, idx := range byCat {
		parts = append(parts, categorySlice{category: cat, indices: idx})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].category < parts[j].category })
	return parts
}

// categoryMatcher is the matcher used inside per-category tasks. An
// explicitly configured Matcher.Workers is honored as-is; otherwise the
// Config.Workers budget is split between the per-category pool and the
// matcher's per-offer parallelism inside one category: with few large
// categories the matcher keeps its own workers, with many categories the
// category fan-out is the parallelism.
func categoryMatcher(cfg Config, parts int) match.Matcher {
	matcher := cfg.Matcher
	if matcher.Workers > 0 {
		return matcher
	}
	matcher.Workers = 1
	if parts == 0 {
		matcher.Workers = cfg.Workers
	} else if w := cfg.Workers / parts; w > 1 {
		matcher.Workers = w
	}
	return matcher
}

// matchPerCategory fans historical matching out across the worker pool,
// one task per category, and merges the per-category match sets back in
// offer input order — byte-for-byte the MatchSet a single serial Run over
// the whole set produces.
func matchPerCategory(ctx context.Context, store *catalog.Store, offers []offer.Offer, cfg Config) (*match.MatchSet, error) {
	parts := partitionByCategory(offers)
	matcher := categoryMatcher(cfg, len(parts))

	results := make([]match.Match, len(offers))
	found := make([]bool, len(offers))
	err := runLimited(ctx, len(parts), cfg.Workers, func(pi int) {
		part := parts[pi]
		sub := make([]offer.Offer, len(part.indices))
		for j, gi := range part.indices {
			sub[j] = offers[gi]
		}
		ms := matcher.Run(store, offer.NewSet(sub))
		for j, gi := range part.indices {
			if mt, ok := ms.ProductFor(sub[j].ID); ok {
				results[gi] = mt
				found[gi] = true
			}
		}
	})
	if err != nil {
		return nil, err
	}

	kept := make([]match.Match, 0, len(offers))
	for i := range results {
		if found[i] {
			kept = append(kept, results[i])
		}
	}
	return match.NewMatchSet(kept), nil
}

// OfflineResult is the output of the offline learning phase.
type OfflineResult struct {
	// Offers are the historical offers with extracted specs attached.
	Offers *offer.Set
	// Matches are the historical offer-to-product matches.
	Matches *match.MatchSet
	// Features is the candidate feature table.
	Features *correspond.FeatureTable
	// Model is the trained correspondence classifier.
	Model *correspond.Model
	// Scored is every candidate with its classifier score (descending).
	Scored []correspond.Scored
	// Correspondences is the selected correspondence set used by
	// schema reconciliation.
	Correspondences *correspond.Set
	// Classifier is the title→category classifier, reused at runtime.
	Classifier *categorize.Classifier
	// Stats are the §5.1-style statistics.
	Stats OfflineStats
	// Fetch accounts the phase's landing-page fetches: counts plus the
	// historical offers whose page could not be fetched and that were
	// learned from feed specs alone.
	Fetch fetch.Report
}

// OfflineStats mirrors the statistics reported in the paper's §5.1.
type OfflineStats struct {
	HistoricalOffers  int
	MatchedOffers     int
	Candidates        int
	TrainingSize      int
	TrainingPositives int
	Correspondences   int
}

// RunOffline executes the offline learning phase. Cancellation of ctx is
// observed at stage boundaries and between the worker-pool jobs inside
// each stage; on cancellation the error is ctx.Err() and every pool
// goroutine has already been joined.
//
// Config.StrictPages applies here exactly as at runtime: by default a
// historical offer whose page cannot be fetched is learned from its feed
// spec alone (and accounted in the result's Fetch report); under
// StrictPages the first fetch failure in offer input order fails the
// phase.
func RunOffline(ctx context.Context, store *catalog.Store, historical []offer.Offer, pages PageFetcher, cfg Config) (*OfflineResult, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	classifier := categorize.New()
	classifier.TrainFromCatalog(store)
	withCat := make([]offer.Offer, len(historical))
	copy(withCat, historical)
	classifier.Assign(withCat)

	cs, before := counterSnapshot(pages)
	tally := &fetchTally{}
	enriched, err := extractSpecs(ctx, withCat, pages, cfg, tally)
	if err != nil {
		return nil, err
	}
	set := offer.NewSet(enriched)

	matches, err := matchPerCategory(ctx, store, enriched, cfg)
	if err != nil {
		return nil, err
	}
	if matches.Len() == 0 {
		return nil, errors.New("core: no historical offer-to-product matches; offline learning has no signal")
	}

	ft := correspond.ComputeFeatures(store, set, matches, cfg.Features)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	model, err := correspond.Train(ft, cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("core: offline training: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scored := model.ScoreAll(ft)
	selected := correspond.Select(scored, cfg.ScoreThreshold)

	return &OfflineResult{
		Offers:          set,
		Matches:         matches,
		Features:        ft,
		Model:           model,
		Scored:          scored,
		Correspondences: selected,
		Classifier:      classifier,
		Fetch:           tally.report(cs, before),
		Stats: OfflineStats{
			HistoricalOffers:  len(historical),
			MatchedOffers:     matches.Len(),
			Candidates:        ft.Len(),
			TrainingSize:      model.TrainingSize,
			TrainingPositives: model.TrainingPositives,
			Correspondences:   selected.Len(),
		},
	}, nil
}

// OfflineFromCorrespondences wraps a previously learned correspondence set
// (e.g. loaded via correspond.ReadSet) so the runtime pipeline can run
// without repeating the offline phase. The classifier may be nil when every
// incoming offer carries a category.
func OfflineFromCorrespondences(set *correspond.Set, classifier *categorize.Classifier) *OfflineResult {
	return &OfflineResult{
		Correspondences: set,
		Classifier:      classifier,
		Stats:           OfflineStats{Correspondences: set.Len()},
	}
}

// RuntimeResult is the output of the runtime offer processing pipeline.
type RuntimeResult struct {
	// Products are the synthesized product instances.
	Products []fusion.Synthesized
	// Reconcile counts pair translation outcomes.
	Reconcile reconcile.Stats
	// Clusters summarizes the clustering step.
	Clusters cluster.Stats
	// SkippedNoKey are reconciled offers with no key attribute.
	SkippedNoKey []offer.Offer
	// ExcludedMatched counts incoming offers dropped because they match
	// an existing catalog product.
	ExcludedMatched int
	// Fetch accounts the run's landing-page fetches, including the offers
	// that proceeded feed-only (lenient mode's graceful degradation).
	Fetch fetch.Report
}

// Prepared is the output of the front half of the runtime pipeline —
// category classification, page extraction, catalog-match exclusion, and
// schema reconciliation — before any clustering. Every stage is a pure
// per-offer function of the catalog and the offline artifacts, so a
// Prepared for a subset of offers is the corresponding subset of the
// whole-run Prepared: the streaming pipeline leans on this to process
// waves incrementally and still agree with a one-shot run.
type Prepared struct {
	// Kept are the reconciled survivors (offers that matched no existing
	// catalog product), in input order, specs in catalog vocabulary.
	Kept []offer.Offer
	// Reconcile counts pair translation outcomes over Kept.
	Reconcile reconcile.Stats
	// ExcludedMatched counts incoming offers dropped because they match
	// an existing catalog product.
	ExcludedMatched int
	// Fetch accounts the wave's landing-page fetches: exact counter
	// deltas when the fetcher keeps counters (fetch.Resilient), a coarse
	// one-attempt-per-offer tally otherwise, plus the sorted IDs of the
	// offers that proceeded feed-only.
	Fetch fetch.Report
}

// PrepareIncoming runs the per-offer front half of the runtime pipeline:
// classification, extraction, match exclusion, and reconciliation. It is
// the incremental entry point RunRuntime and the streaming pipeline share,
// expressed as a drain of the composable stages in stage.go:
//
//	ClassifyStage → ExtractStage → [gather] → per-category match+reconcile
//
// Cancellation of ctx is observed at every stage pull; the error is then
// ctx.Err().
func PrepareIncoming(ctx context.Context, store *catalog.Store, offline *OfflineResult, incoming []offer.Offer, pages PageFetcher, cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if offline == nil || offline.Correspondences == nil {
		return nil, errors.New("core: offline result required")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cs, before := counterSnapshot(pages)
	tally := &fetchTally{}
	perOffer := extractStage(pages, cfg, tally)(ClassifyStage(offline)(pipe.FromSlice(incoming)))
	enriched, err := pipe.Collect(ctx, perOffer)
	if err != nil {
		return nil, err
	}
	prep, err := matchReconcile(ctx, store, offline, enriched, cfg)
	if err != nil {
		return nil, err
	}
	prep.Fetch = tally.report(cs, before)
	return prep, nil
}

// FuseClusters drains FuseStage over the clusters: value fusion fans out
// across the worker pool, one task per cluster, results in cluster order.
// It is safe to call repeatedly on overlapping cluster snapshots: fusion
// is a pure function of each cluster's member offers, so re-fusing an
// extended cluster yields exactly what fusing it whole would have (the
// streaming pipeline's contract). A cancelled ctx returns ctx.Err() and
// no products.
func FuseClusters(ctx context.Context, clusters []cluster.Cluster, cfg Config) ([]fusion.Synthesized, error) {
	return pipe.Collect(ctx, FuseStage(cfg)(pipe.FromSlice(clusters)))
}

// RunRuntime executes the runtime pipeline over incoming offers using the
// artifacts of an offline learning run. Cancellation of ctx is observed at
// stage boundaries and between worker-pool jobs; the error is then
// ctx.Err().
func RunRuntime(ctx context.Context, store *catalog.Store, offline *OfflineResult, incoming []offer.Offer, pages PageFetcher, cfg Config) (*RuntimeResult, error) {
	cfg = cfg.withDefaults()
	prep, err := PrepareIncoming(ctx, store, offline, incoming, pages, cfg)
	if err != nil {
		return nil, err
	}
	res := &RuntimeResult{
		Reconcile:       prep.Reconcile,
		ExcludedMatched: prep.ExcludedMatched,
		Fetch:           prep.Fetch,
	}

	// Clustering is global: key values identify a product regardless of
	// the category the classifier assigned each offer, so clusters may
	// span category tasks and cannot be formed per category.
	clusters, skipped := cluster.Group(prep.Kept, cluster.Options{KeyAttrs: cfg.ClusterKeys})
	res.SkippedNoKey = skipped
	res.Clusters = cluster.Summarize(clusters, skipped)
	res.Products, err = FuseClusters(ctx, clusters, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// extractSpecs is the offline phase's bulk extraction: it fetches each
// offer's landing page and merges extracted attribute-value pairs into the
// offer spec (feed pairs win on name conflict), sharing the per-offer body
// (extractOne) with the runtime ExtractStage. Offers whose page cannot be
// fetched keep their feed spec (recorded in the tally) unless
// Config.StrictPages is set, in which case the first fetch failure in
// offer input order fails the run. Cancellation is checked between offers
// and, for a context-aware fetcher, reaches in-flight fetches; a plain
// Fetch is allowed to finish, after which the pool drains and ctx.Err()
// is returned.
func extractSpecs(ctx context.Context, offers []offer.Offer, pages PageFetcher, cfg Config, tally *fetchTally) ([]offer.Offer, error) {
	out := make([]offer.Offer, len(offers))
	var errs []error
	if cfg.StrictPages {
		errs = make([]error, len(offers))
	}
	poolErr := runLimited(ctx, len(offers), cfg.Workers, func(i int) {
		o, err := extractOne(ctx, offers[i], pages, cfg, tally)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = o
	})
	if poolErr != nil {
		return nil, poolErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
