package prodsynth

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/fetch"
	"prodsynth/internal/stream"
)

// wrapFetch applies the config's fetch policy around the caller's
// fetcher. Wrapping happens once per run (or once per stream), never per
// offer or per wave, so the returned fetcher's breaker state, concurrency
// gate, and counters span the whole run. A disabled policy (the zero
// value) or a nil fetcher passes through untouched — and a caller who
// pre-wrapped with NewResilientFetcher is not double-wrapped.
func wrapFetch(pages core.PageFetcher, cfg Config) core.PageFetcher {
	if pages == nil || !cfg.Fetch.Enabled() {
		return pages
	}
	if _, ok := pages.(*fetch.Resilient); ok {
		return pages
	}
	return fetch.NewResilient(pages, cfg.Fetch)
}

// System is the runtime half of the pipeline: it ties a catalog to a
// learned Model and serves synthesis over them. Build one with NewSystem
// from a Model (Learn or LoadModel); in a long-lived process, swap in a
// re-learned Model atomically with Use while synthesis traffic is in
// flight. A System built with a nil Model (or reset by Use(nil)) returns
// ErrNotLearned from its synthesis entry points.
type System struct {
	store *Catalog
	cfg   Config
	// slot holds the served model together with its generation number, in
	// one pointer, so a synthesis call pins a consistent (model,
	// generation) pair with a single atomic load — a concurrent Use can
	// never make a result report the wrong model's generation.
	slot atomic.Pointer[modelSlot]
	// gen mints generation numbers: 1 for the Model a System is built
	// with, +1 per Use. Monotonic for the lifetime of the System.
	gen atomic.Uint64
}

// modelSlot is the atomically swapped unit behind System.Use.
type modelSlot struct {
	model *Model
	gen   uint64
}

// NewSystem creates a System serving synthesis over a catalog with a
// learned Model. The zero Config (no options) applies the paper's
// defaults; pass WithConfig or the finer-grained options to tune the
// runtime pipeline. The Model it is built with is generation 1.
func NewSystem(store *Catalog, model *Model, opts ...Option) *System {
	s := &System{store: store, cfg: buildConfig(opts)}
	var g uint64
	if model != nil {
		g = s.gen.Add(1)
	}
	s.slot.Store(&modelSlot{model: model, gen: g})
	return s
}

// Use atomically swaps the System's Model: synthesis calls that started
// before the swap finish against the old model, calls that start after it
// use the new one. This is the hot-reload path for a serving process that
// re-learns (or re-loads) its model without downtime. Every swap bumps the
// System's model generation (see Generation); a nil model resets the
// System to the unlearned state (ErrNotLearned).
func (s *System) Use(model *Model) {
	s.slot.Store(&modelSlot{model: model, gen: s.gen.Add(1)})
}

// Model returns the Model the System currently serves with, or nil if it
// holds none.
func (s *System) Model() *Model { return s.slot.Load().model }

// Generation returns the generation number of the Model the System
// currently serves with: 1 for the Model passed to NewSystem, incremented
// by every Use. Zero only for a System built with a nil Model. A
// serving process exposes this as the observable marker of a completed
// hot reload, and every Result reports the generation that produced it
// (Result.ModelGeneration), so responses spanning a swap are attributable
// to exactly one model.
func (s *System) Generation() uint64 { return s.slot.Load().gen }

// current is the nil-guarded slot fetch shared by the synthesis entry
// points: one atomic load, so a concurrent Use cannot change the model —
// or detach it from its generation — mid-call.
func (s *System) current() (*modelSlot, error) {
	sl := s.slot.Load()
	if sl.model == nil {
		return nil, ErrNotLearned
	}
	return sl, nil
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Products are the synthesized product instances.
	Products []Synthesized
	// PairsDropped counts extracted attribute-value pairs discarded for
	// lack of a correspondence (the noise filter of §4).
	PairsDropped int
	// PairsMapped counts pairs translated into catalog vocabulary.
	PairsMapped int
	// OffersWithoutKey counts reconciled offers that could not be
	// clustered because no key attribute survived reconciliation.
	OffersWithoutKey int
	// ExcludedMatched counts incoming offers dropped because they match
	// an existing catalog product — the run's match count against the
	// warm indexes.
	ExcludedMatched int
	// Offers is the number of incoming offers the run processed.
	Offers int
	// Clusters is the number of offer clusters value fusion synthesized
	// from (one synthesized product per cluster).
	Clusters int
	// Elapsed is the wall-clock duration of the run. On a per-wave
	// StreamResult it makes the cost of a wave visible next to its match
	// and fusion counts.
	Elapsed time.Duration
	// ModelGeneration is the System.Generation of the Model this result
	// was synthesized against. The model is pinned per call (per stream),
	// so every product in one Result comes from this one generation even
	// when a Use swap lands mid-run.
	ModelGeneration uint64
	// Fetch accounts the run's landing-page fetches: operation counters
	// (exact when a FetchPolicy or other counter-keeping fetcher is in
	// use) and the sorted IDs of offers that proceeded feed-only because
	// their page could not be fetched — lenient mode's observable
	// graceful degradation.
	Fetch FetchReport
	// Err is set on a per-wave StreamResult when that wave failed — with
	// DisableClusterMemory, exactly when SynthesizeContext over that wave
	// would have returned the error. A failed wave does not stop later
	// waves. Always nil on a Result returned directly by
	// SynthesizeContext, which reports failure through its error return
	// instead.
	Err error
}

// SynthesizeContext runs the runtime pipeline (§4) over incoming offers:
// extraction, schema reconciliation, clustering, and value fusion, against
// the System's current Model. Cancelling ctx stops the pipeline's worker
// pools at the next stage boundary with ctx.Err() and leaks no goroutines.
func (s *System) SynthesizeContext(ctx context.Context, incoming []Offer, pages PageFetcher) (*Result, error) {
	sl, err := s.current()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	run, err := core.RunRuntime(ctx, s.store, sl.model.offline, incoming, wrapFetch(pages, s.cfg), s.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Products:         run.Products,
		PairsDropped:     run.Reconcile.PairsDropped,
		PairsMapped:      run.Reconcile.PairsMapped,
		OffersWithoutKey: len(run.SkippedNoKey),
		ExcludedMatched:  run.ExcludedMatched,
		Offers:           len(incoming),
		Clusters:         run.Clusters.Clusters,
		Elapsed:          time.Since(start),
		ModelGeneration:  sl.gen,
		Fetch:            run.Fetch,
	}, nil
}

// StreamOptions tunes SynthesizeStream. The zero value keeps unbounded
// cluster memory and an unbuffered result channel.
type StreamOptions struct {
	// MaxOpenClusters bounds the cross-batch cluster memory: past the
	// bound, the least recently extended clusters are forgotten (a later
	// offer with a forgotten cluster's key synthesizes a duplicate, as a
	// memory-less batch run would). 0 means unbounded.
	MaxOpenClusters int
	// MaxIdleWaves forgets clusters no wave has extended for more than
	// this many consecutive waves — a TTL measured in waves, so behaviour
	// is deterministic for a given wave sequence. 0 means never.
	MaxIdleWaves int
	// DisableClusterMemory makes every wave cluster independently: each
	// wave's result equals SynthesizeContext over that wave (a product
	// whose offers span waves synthesizes once per wave), with the
	// System's model pinned and the fetcher wrapped once for the whole
	// stream.
	DisableClusterMemory bool
}

// SealReason says why a cluster was sealed — why the stream's cross-batch
// cluster memory decided it can no longer grow.
type SealReason = stream.SealReason

// The seal reasons carried by ClusterSealed events.
const (
	// SealClose: the input channel closed; every cluster still open seals
	// on the final result.
	SealClose = stream.SealClose
	// SealLRU: the cluster was evicted as least recently extended when the
	// open set exceeded StreamOptions.MaxOpenClusters.
	SealLRU = stream.SealLRU
	// SealIdle: no wave extended the cluster for more than
	// StreamOptions.MaxIdleWaves consecutive waves.
	SealIdle = stream.SealIdle
	// SealInvalidated: AddToCatalog grew the catalog mid-stream in one of
	// the cluster's member categories, so the cluster was dropped rather
	// than extended (its product may now exist in the catalog).
	SealInvalidated = stream.SealInvalidated
)

// ClusterSealed is one per-cluster seal event on a StreamResult: the
// stream's cluster memory decided this cluster can no longer grow, so its
// Product is final rather than provisional — the signal a consumer
// committing products downstream (AddToCatalog, an export feed) waits for
// instead of re-committing every re-fused emission. ClusterIDs are unique
// for the lifetime of one stream and every cluster seals exactly once:
// through one eviction reason mid-stream, or through SealClose on the
// final result (whose Sealed events align 1:1 with its merged Products).
type ClusterSealed = stream.Sealed

// StreamResult is one emission of SynthesizeStream: the embedded Result
// carries the wave's products and counters (or Err for a failed wave).
type StreamResult struct {
	Result
	// Wave is the 0-based wave index; on the final result, the number of
	// waves consumed.
	Wave int
	// OpenClusters is the cluster-memory size after the wave — the
	// quantity StreamOptions.MaxOpenClusters bounds. Zero when cluster
	// memory is disabled.
	OpenClusters int
	// SpilledClusters is the number of clusters parked out-of-core in the
	// spill store after the wave. Zero unless the Config carries a spill
	// factory (see WithDurability).
	SpilledClusters int
	// Final marks the single closing result: its Products are the merged
	// stream view (final fused state of every remembered cluster, in
	// first-appearance order) and its counters aggregate all successful
	// waves. For an uninterrupted stream with unbounded memory and no
	// mid-stream catalog growth, the final Products are byte-identical
	// to a one-shot SynthesizeContext over the concatenated waves.
	Final bool
	// Sealed are the clusters this result sealed: per-wave results carry
	// the wave's evictions (LRU, idle-TTL, catalog invalidation), each
	// with the cluster's final fused product; the Final result carries one
	// SealClose event per merged product, aligned 1:1 with its Products.
	// Empty when cluster memory is disabled (nothing is provisional then —
	// every wave's products are already final).
	Sealed []ClusterSealed
}

// SynthesizeStream runs the runtime pipeline as a long-lived feed
// consumer: offer waves are read from waves, processed in order against
// the warm matcher state, and one StreamResult per wave is delivered on
// the returned channel, followed by a closing Final result when waves is
// closed. Unless StreamOptions.DisableClusterMemory is set, clusters stay
// open across waves in a cross-batch cluster memory: an offer arriving in wave n whose key
// matches a cluster synthesized in an earlier wave joins that cluster,
// and the wave's result carries the product re-fused over the union of
// evidence — the product synthesizes once, not once per wave. The memory
// is bounded through StreamOptions and invalidated per category when
// AddToCatalog grows the catalog mid-stream (the same version counters
// that refresh the matcher's indexes), since such clusters' products may
// now be matched — and excluded — against the catalog itself.
//
// The stream executes as two pull-based stages — prepare (classify,
// extract, match-exclude, reconcile) and fuse (cluster memory, value
// fusion) — with a one-wave hand-off between them, so wave n+1's prepare
// overlaps wave n's fuse while results are still emitted in input order.
// The returned channel is unbuffered, so the pipeline runs at most one
// wave ahead of the consumer. The System's fetch policy wraps pages once
// for the whole stream, so breaker state and fetch counters carry across
// waves. Each result's Sealed field carries the stream's ClusterSealed
// events: the products that just became final (see ClusterSealed for the
// consumer contract).
//
// The stream pins the Model current when it starts; a later Use swap
// affects subsequent calls, not a stream already in flight. A failed wave
// (e.g. under Config.StrictPages) reports its error in that wave's
// StreamResult.Err and the stream continues. Cancelling ctx stops the
// pipeline — whatever stage each in-flight wave is in — and closes the
// channel without the final result; every pipeline goroutine exits once
// ctx is cancelled or waves is closed, even if the consumer stops
// reading. A System built without a Model returns ErrNotLearned.
func (s *System) SynthesizeStream(ctx context.Context, waves <-chan []Offer, pages PageFetcher, opts StreamOptions) (<-chan StreamResult, error) {
	sl, err := s.current()
	if err != nil {
		return nil, err
	}
	// Both channels are unbuffered, so the consumer applies backpressure
	// on the fuse stage: it runs at most one wave ahead of the consumer
	// (the wave whose result is being delivered), and the prepare stage
	// one wave ahead of fuse.
	inner := stream.Run(ctx, s.store, sl.model.offline, waves, wrapFetch(pages, s.cfg), s.cfg, stream.Options{
		MaxOpenClusters: opts.MaxOpenClusters,
		MaxIdleWaves:    opts.MaxIdleWaves,
		DisableMemory:   opts.DisableClusterMemory,
	})
	out := make(chan StreamResult)
	//lint:allow spawncheck forwarder exits when inner closes (stream.Run closes it on cancel or input close), closing out; leak-guarded by TestStreamCtxCancelNoLeak
	go func() {
		defer close(out)
		for r := range inner {
			sr := StreamResult{
				Wave:            r.Wave,
				Final:           r.Final,
				OpenClusters:    r.OpenClusters,
				SpilledClusters: r.SpilledClusters,
				Sealed:          r.Sealed,
				Result: Result{
					Products:         r.Products,
					PairsDropped:     r.Reconcile.PairsDropped,
					PairsMapped:      r.Reconcile.PairsMapped,
					OffersWithoutKey: r.OffersWithoutKey,
					ExcludedMatched:  r.ExcludedMatched,
					Offers:           r.Offers,
					Clusters:         r.Clusters,
					Elapsed:          r.Elapsed,
					ModelGeneration:  sl.gen,
					Err:              r.Err,
					Fetch:            r.Fetch,
				},
			}
			select {
			case out <- sr:
			case <-ctx.Done():
				// The consumer may be gone; drain inner (stream.Run
				// also watches ctx, so it closes promptly) and exit.
				for range inner {
				}
				return
			}
		}
	}()
	return out, nil
}

// AddReport is the outcome of an AddToCatalog run, with rejected products
// separated by cause.
type AddReport struct {
	// Added counts products inserted into the catalog.
	Added int
	// KeyCollisions are products whose synthesized ID (prefix + cluster
	// key) collided with an existing product ID — typically the product
	// was already added by an earlier wave, or two synthesized products
	// share a key. Nothing is wrong with the product itself.
	KeyCollisions []Synthesized
	// SchemaViolations are products rejected on their own merits: a spec
	// attribute outside the category schema, or an unknown category.
	SchemaViolations []Synthesized
	// KeyShadowed are products that were added (they count in Added)
	// whose UPC/MPN key was already owned by a different catalog product:
	// Catalog.ProductByKey keeps resolving the key to the earlier product,
	// so these products are reachable by ID and category only.
	KeyShadowed []Synthesized
}

// Skipped returns every rejected product (collisions then violations),
// mirroring the pre-AddReport return value.
func (r AddReport) Skipped() []Synthesized {
	return append(append([]Synthesized(nil), r.KeyCollisions...), r.SchemaViolations...)
}

// AddToCatalog inserts synthesized products into the catalog as new
// product instances, assigning IDs with the given prefix. Rejected
// products are reported by cause: ID collisions with existing products
// distinctly from schema violations. Insertions bump the affected
// categories' versions, which evicts the matcher's warm indexes for those
// categories (see Catalog.CategoryVersion) — a following synthesis run
// observes the grown catalog.
//
// A product with no cluster key gets an ID reserved by the store itself
// (Catalog.AddProductAutoID) inside the insertion's critical section, so
// concurrent AddToCatalog calls — and repeated calls with the same prefix
// — can never mint colliding keyless IDs or misreport a valid product as
// a key collision. Keyed and generated IDs share the prefix namespace: a
// cluster key that is literally of the form "nokey-<n>" can collide with
// a previously generated ID and is then reported under KeyCollisions like
// any other ID collision.
func (s *System) AddToCatalog(products []Synthesized, idPrefix string) AddReport {
	var report AddReport
	for _, p := range products {
		if p.Key == "" {
			prod := Product{CategoryID: p.CategoryID, Spec: p.Spec}
			// The generated ID cannot collide, so any failure is a
			// schema-or-category rejection. The spec may still carry a
			// UPC/MPN that duplicates an existing key (the cluster key is
			// empty, not necessarily the spec), so shadowing is surfaced
			// here exactly as on the keyed path.
			switch _, out, err := s.store.AddProductAutoID(idPrefix, prod); {
			case err != nil:
				report.SchemaViolations = append(report.SchemaViolations, p)
			default:
				report.Added++
				if out.KeyShadowedBy != "" {
					report.KeyShadowed = append(report.KeyShadowed, p)
				}
			}
			continue
		}
		prod := Product{ID: idPrefix + "-" + p.Key, CategoryID: p.CategoryID, Spec: p.Spec}
		switch out, err := s.store.AddProductOutcome(prod); {
		case err == nil:
			report.Added++
			if out.KeyShadowedBy != "" {
				report.KeyShadowed = append(report.KeyShadowed, p)
			}
		case errors.Is(err, catalog.ErrDuplicateProduct):
			report.KeyCollisions = append(report.KeyCollisions, p)
		default:
			report.SchemaViolations = append(report.SchemaViolations, p)
		}
	}
	return report
}
