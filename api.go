// Package prodsynth is an end-to-end implementation of the product
// synthesis pipeline from "Synthesizing Products for Online Catalogs"
// (Nguyen, Fuxman, Paparizos, Freire, Agrawal — PVLDB 4(7), 2011).
//
// Given a product catalog and merchant offers (terse feed rows plus landing
// pages), the system learns attribute correspondences between merchant
// vocabularies and the catalog schema from historical offer-to-product
// matches — with an automatically constructed training set, no manual
// labels — and then synthesizes new, structured product instances from
// offers that match nothing in the catalog.
//
// The API separates the two phases of the paper's Figure 4 architecture.
// The offline phase is a function producing an immutable, serializable
// [Model] artifact; the runtime phase is a [System] constructed over a
// catalog from such a Model:
//
//	store := prodsynth.NewCatalog()
//	// ... add categories and known products ...
//	model, err := prodsynth.Learn(ctx, store, historicalOffers, pages)
//	if err != nil { ... }
//	sys := prodsynth.NewSystem(store, model)
//	result, err := sys.SynthesizeContext(ctx, incomingOffers, pages)
//	// result.Products now holds catalog-ready product instances.
//
// A System built from a Model is never "not learned"; only a nil Model
// yields ErrNotLearned. Models are plain values: save one with
// [SaveModel], warm-start a fresh process with [LoadModel], and swap a
// re-learned model into a serving System atomically with [System.Use].
//
// Every entry point is context-first: cancelling the context stops the
// pipeline's worker pools at the next stage boundary with ctx.Err(), and
// never leaks a goroutine.
//
// # Pipeline
//
// Internally every entry point composes the same pull-based iterator
// stages (classify → extract → match/reconcile → cluster → fuse); a
// stage computes only when the consumer pulls, and parallel stages
// preserve input order, so results are byte-identical for every
// [Config.Workers] setting. [System.SynthesizeStream] additionally
// pipelines across waves — wave n+1 is prepared while wave n fuses — and
// reports [StreamResult.Sealed] events when the cross-batch cluster
// memory decides a cluster can no longer grow: the signal that a
// provisional product is final and safe to commit downstream. See
// README.md ("Pipeline architecture") for the stage diagram, buffer and
// backpressure semantics, and a ClusterSealed consumer recipe.
//
// # Robustness and degraded mode
//
// Landing-page retrieval is the pipeline's one external boundary, and it
// is allowed to fail. Configure [WithFetchPolicy] (or [Config.Fetch]) and
// every entry point wraps the caller's [PageFetcher] in a resilience
// layer — per-attempt deadlines, bounded retries with jittered backoff, a
// per-host circuit breaker, and a concurrency gate — wrapped once per run
// (once per stream), so breaker state spans a whole wave sequence. The
// degraded-mode guarantees are:
//
//   - Lenient mode (the default): an offer whose page cannot be fetched
//     after all retries proceeds on its feed spec alone. Nothing is
//     dropped and nothing is silent — every result carries a
//     [FetchReport] with exact counters and the sorted IDs of the offers
//     that went feed-only ([FetchReport.FeedOnly]), so graceful
//     degradation is observable and alertable.
//   - Strict mode ([WithStrictPages]): the first fetch failure in offer
//     input order fails the run (a stream wave records the error and
//     later waves continue). Offline learning honors the same knob.
//   - Determinism: retries change when a fetch runs, never what it
//     returns, so under any fault schedule that is a pure function of
//     (URL, attempt) the synthesized output is byte-identical across
//     worker counts — and identical to a no-fault run when retries
//     recover every page. The circuit breaker is the one exception: it
//     reacts to cross-offer ordering, so runs that trip it keep
//     deterministic products per wave but may vary in which fetches
//     were rejected.
//   - Cancellation reaches in-flight fetches: a fetcher implementing
//     [ContextFetcher] observes pipeline cancellation mid-retry and
//     mid-backoff instead of being abandoned.
//
// Fault injection for tests and drills is built in: [NewFaultyFetcher]
// scripts deterministic per-(URL, attempt) error/latency schedules and
// [NewFakeFetchClock] removes the wall clock from backoff and cooldowns.
// See README.md ("Robustness") for the recipe.
//
// Warm-starting a long-lived process: the catalog store persists the same
// way the Model does ([SaveCatalog]/[LoadCatalog]), and [SaveBundle]
// writes both halves as one artifact, so a daemon cold-starts from a
// single file with zero catalog re-ingestion and zero re-learning —
//
//	// learner process: ingest the catalog, learn, persist both halves
//	model, _ := prodsynth.Learn(ctx, store, historical, pages)
//	f, _ := os.Create("warm.psbd")
//	prodsynth.SaveBundle(f, store, model)
//	f.Close()
//
//	// serving process: one load, nothing re-derived
//	f, _ := os.Open("warm.psbd")
//	store, model, err := prodsynth.LoadBundle(f) // strict: checksums + versions verified
//	sys := prodsynth.NewSystem(store, model)
//	// ... serve SynthesizeContext / SynthesizeStream ...
//	sys.Use(relearned)                           // atomic hot-swap, no downtime
//
// A loaded catalog is behaviorally identical to the one that was saved —
// same products and insertion order, same ProductByKey resolution, same
// CategoryVersion counters — so ProductsSince deltas and the match
// registry's version-driven invalidation carry straight on. The halves
// remain independently useful: [SaveModel]/[LoadModel] move a re-learned
// model between processes that already hold the catalog, and
// [SaveCatalog]/[LoadCatalog] snapshot a growing catalog on its own.
//
// # Durability and out-of-core state
//
// Where bundles snapshot a moment, [OpenDurable] makes the catalog
// continuously crash-safe: the store lives in a data directory as
// a compacted snapshot plus an append-only, CRC-framed
// write-ahead log, every commit (including each product [System.AddToCatalog]
// adds mid-stream) is logged before the call returns, and reopening the
// directory recovers a byte-identical store — snapshot load, idempotent
// log replay, torn-tail truncation — after a power cut at any point: the
// crash tests cut the power in-process at every file operation of a
// workload, over a model disk that keeps only what was synced. A failed
// write or fsync loses no record; the log writes it again.
// [Durable.Run] compacts in the background while serving, and
// [WithDurability] extends the same data directory to the streaming side:
// clusters evicted by [StreamOptions.MaxOpenClusters]/MaxIdleWaves spill
// to disk and revive when their keys resurface, keeping bounded-memory
// streaming byte-identical to unbounded. cmd/synthd exposes the whole
// layer as -data-dir. See README.md ("Durability & out-of-core").
//
// # Serving
//
// cmd/synthd packages the daemon recipe above as a binary: one LoadBundle
// at boot, then synthesis over HTTP until SIGTERM. Its HTTP layer
// (internal/serve) adds the production posture a library call leaves to
// the caller — semaphore admission control that sheds excess load with
// 429 instead of queueing, per-request deadlines, Prometheus-format
// metrics with zero dependencies, hot reload via [System.Use], and a
// deadline-bounded graceful drain:
//
//	synthd -bundle warm.psbd -addr :8080      # boot and serve
//	curl -X POST d:8080/v1/synthesize         # offers+pages → products
//	curl -X POST d:8080/v1/reload             # background re-learn + atomic swap
//	curl d:8080/metrics                       # request/latency/fetch/generation series
//
// Every synthesis call — direct or served — pins its (model, generation)
// pair in one atomic load and stamps [Result.ModelGeneration], so during
// a hot swap no response ever mixes two models; the daemon's responses
// are byte-identical to direct [System.SynthesizeContext] output for the
// same request and generation.
//
// # Invariants, machine-checked
//
// The contracts above are not prose-only: internal/lint is a repo-specific
// analyzer suite (run as cmd/vetsynth in CI and as a self-scan test) that
// machine-checks them — retry backoff and breaker timing in
// internal/fetch goes through its injectable Clock (clockcheck), exported
// entry points that block or spawn take a context first and library code
// never manufactures root contexts (ctxfirst), the catalog store's and the
// match registry's critical sections stay free of channel ops, I/O, and
// user callbacks (lockscope), Err* sentinels are wrapped with %w
// so errors.Is matches through every decoder (errwrapcheck), and raw
// goroutines have a visible join (spawncheck). A justified exception is
// allowlisted in the source with `//lint:allow <analyzer> <reason>` — the
// reason is mandatory — so every exception in the tree documents why it
// is one.
//
// The subpackages under internal implement each component of the paper's
// Figure 4 architecture plus every substrate the evaluation needs: an HTML
// extractor, distributional similarity measures, logistic regression,
// baseline matchers (DUMAS, LSD, COMA++-style), and a synthetic marketplace
// generator standing in for the proprietary Bing Shopping corpus.
package prodsynth

import (
	"errors"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
)

// ErrNotLearned is returned by the synthesis entry points of a System that
// holds no Model: one built by NewSystem with a nil Model, or reset by
// Use(nil).
var ErrNotLearned = errors.New("prodsynth: Learn must succeed before Synthesize")

// Re-exported data model. These aliases are the supported public surface;
// their methods are documented on the internal definitions.
type (
	// Catalog is the product catalog store: categories, schemas,
	// products, key indexes. Safe for concurrent use.
	Catalog = catalog.Store
	// Category is a taxonomy node with a schema.
	Category = catalog.Category
	// Schema is a category's attribute list.
	Schema = catalog.Schema
	// Attribute is one schema attribute.
	Attribute = catalog.Attribute
	// AttributeValue is one <name, value> pair.
	AttributeValue = catalog.AttributeValue
	// Spec is an attribute-value specification.
	Spec = catalog.Spec
	// Product is a catalog product instance.
	Product = catalog.Product
	// Offer is a merchant offer.
	Offer = offer.Offer
	// SchemaKey identifies a (merchant, category) pair.
	SchemaKey = offer.SchemaKey
	// Config controls the pipeline (extraction, matching, training,
	// thresholds, fusion strategy, parallelism).
	Config = core.Config
	// PageFetcher retrieves landing pages by URL.
	PageFetcher = core.PageFetcher
	// MapFetcher serves pages from an in-memory map.
	MapFetcher = core.MapFetcher
	// PageDoc is one landing page in a page list: URL plus HTML body.
	PageDoc = core.PageDoc
	// Correspondence is a scored attribute correspondence
	// <catalog attr, merchant attr, merchant, category>.
	Correspondence = correspond.Scored
	// Synthesized is a product instance produced by the pipeline.
	Synthesized = fusion.Synthesized
	// OfflineStats summarizes the offline learning phase (§5.1 numbers).
	OfflineStats = core.OfflineStats
	// Marketplace is a generated synthetic marketplace with ground truth.
	Marketplace = synth.Dataset
	// MarketplaceConfig sizes a generated marketplace.
	MarketplaceConfig = synth.Config
)

// Resilient ingestion: the fetch layer's public surface (see the
// "Robustness and degraded mode" section of the package documentation).
type (
	// FetchPolicy configures the resilience layer around a PageFetcher:
	// per-attempt deadlines, bounded retries with full-jitter backoff, a
	// per-host circuit breaker, and a concurrency gate. The zero value
	// disables wrapping.
	FetchPolicy = fetch.Policy
	// FetchReport is the per-run fetch accounting on every Result:
	// counters plus the IDs of offers that proceeded feed-only.
	FetchReport = fetch.Report
	// FetchCounters are the fetch-operation counts inside a FetchReport.
	FetchCounters = fetch.Counters
	// ContextFetcher is the context-aware fetch boundary
	// (FetchContext(ctx, url)); fetchers implementing it observe
	// pipeline cancellation and per-attempt deadlines mid-fetch.
	ContextFetcher = fetch.ContextPages
	// ResilientFetcher wraps any PageFetcher with a FetchPolicy's
	// defenses; the entry points build one automatically when a policy
	// is configured. Implements PageFetcher, ContextFetcher, and
	// per-lifetime counters.
	ResilientFetcher = fetch.Resilient
	// FaultyFetcher injects a deterministic fault schedule in front of a
	// PageFetcher — the built-in fault-injection harness.
	FaultyFetcher = fetch.Faulty
	// FaultSchedule scripts fault outcomes as a pure function of
	// (URL, attempt number).
	FaultSchedule = fetch.Schedule
	// FaultScheduleFunc adapts a function to FaultSchedule.
	FaultScheduleFunc = fetch.ScheduleFunc
	// FaultOutcome is one scripted attempt outcome (error, latency).
	FaultOutcome = fetch.Outcome
	// FetchClock abstracts time for backoff, cooldowns, and injected
	// latency.
	FetchClock = fetch.Clock
	// FakeFetchClock is a manually driven FetchClock: sleeps advance it
	// instantly, so retry schedules run without wall-clock delays.
	FakeFetchClock = fetch.FakeClock
)

// Fetch-layer sentinel errors.
var (
	// ErrFetchBreakerOpen wraps fetch errors rejected by an open
	// per-host circuit breaker.
	ErrFetchBreakerOpen = fetch.ErrBreakerOpen
	// ErrFetchPermanent marks a fetch error as not worth retrying.
	ErrFetchPermanent = fetch.ErrPermanent
	// ErrFetchInjected wraps every fault a FaultyFetcher injects.
	ErrFetchInjected = fetch.ErrInjected
)

// DefaultFetchPolicy is the recommended serving configuration: 10s per
// attempt, 3 attempts with 50ms..2s full-jitter backoff, and a 5-failure
// per-host breaker with 30s cooldown.
func DefaultFetchPolicy() FetchPolicy { return fetch.DefaultPolicy() }

// NewResilientFetcher wraps a PageFetcher with a FetchPolicy's defenses
// explicitly — useful for sharing one breaker/counter state across many
// runs; the entry points otherwise wrap per run via WithFetchPolicy.
func NewResilientFetcher(inner PageFetcher, p FetchPolicy) *ResilientFetcher {
	return fetch.NewResilient(inner, p)
}

// NewFaultyFetcher wraps a PageFetcher with a scripted fault schedule: the
// k-th fetch of a URL suffers schedule.Outcome(url, k). A nil clock sleeps
// injected latency on the wall clock; pass NewFakeFetchClock() to run
// latency schedules instantly.
func NewFaultyFetcher(inner PageFetcher, schedule FaultSchedule, clock FetchClock) *FaultyFetcher {
	return fetch.NewFaulty(inner, schedule, clock)
}

// NewFakeFetchClock returns a manually driven clock starting at a fixed
// epoch.
func NewFakeFetchClock() *FakeFetchClock { return fetch.NewFakeClock() }

// FailFirstFaults scripts the canonical recovery drill: every URL fails
// its first n attempts and succeeds from attempt n+1 on.
func FailFirstFaults(n int) FaultSchedule { return fetch.FailFirst(n) }

// FlakyFaults scripts seeded random faults: each (URL, attempt) fails
// with probability p, deterministically and independent of call order.
func FlakyFaults(seed int64, p float64) FaultSchedule { return fetch.Flaky(seed, p) }

// HostOutageFaults scripts a hard outage of one host (every attempt for
// its URLs fails) — the drill that trips the per-host circuit breaker.
func HostOutageFaults(host string) FaultSchedule { return fetch.HostOutage(host) }

// Attribute kinds, re-exported for schema construction.
const (
	KindCategorical = catalog.KindCategorical
	KindNumeric     = catalog.KindNumeric
	KindText        = catalog.KindText
	KindIdentifier  = catalog.KindIdentifier
)

// Key attribute names used for clustering (§4).
const (
	AttrUPC = catalog.AttrUPC
	AttrMPN = catalog.AttrMPN
)

// NewCatalog returns an empty catalog store.
func NewCatalog() *Catalog { return catalog.NewStore() }

// ErrDuplicatePage is returned by NewMapFetcher when a page list repeats a
// URL with a different body.
var ErrDuplicatePage = core.ErrDuplicatePage

// NewMapFetcher builds a MapFetcher from a page list, rejecting a URL that
// appears twice with distinct bodies (ErrDuplicatePage) instead of
// silently keeping the last one; exact repeats are tolerated. This is the
// constructor serving layers should use for request-supplied page sets —
// a map literal cannot carry duplicates, but a decoded list can.
func NewMapFetcher(docs []PageDoc) (MapFetcher, error) { return core.MapFetcherFromDocs(docs) }

// MatchRegistry is the shared cache of per-category title indexes. Set one
// on Config.Registry (WithMatchRegistry) to give a pipeline an independent
// lifecycle or memory bound; leave it nil to share DefaultRegistry with
// the rest of the process.
type MatchRegistry = match.Registry

// MatchRegistryOptions tunes a MatchRegistry: MaxEntries is an exact LRU
// bound on cached category entries. The zero value is unbounded.
type MatchRegistryOptions = match.RegistryOptions

// NewMatchRegistry returns an empty match registry with the given memory
// bound. Matcher output is identical for every bound; the bound trades
// resident index memory against rebuild cost on cold categories.
func NewMatchRegistry(opts MatchRegistryOptions) *MatchRegistry {
	return match.NewRegistryWithOptions(opts)
}

// ReleaseMatchState drops the matcher's cached per-category indexes for a
// catalog, releasing the memory (and the catalog reference) the shared
// index registry holds for it. Call when a catalog goes out of use in a
// long-lived process — e.g. after swapping in a rebuilt catalog — to keep
// the registry from pinning retired stores. Matching against the catalog
// afterwards simply rebuilds its indexes on first touch.
func ReleaseMatchState(store *Catalog) { match.DefaultRegistry.ReleaseStore(store) }

// GenerateMarketplace builds a synthetic marketplace (catalog, merchants,
// offers, landing pages, ground truth) standing in for a production offer
// corpus. Deterministic given cfg.Seed.
func GenerateMarketplace(cfg MarketplaceConfig) *Marketplace { return synth.Generate(cfg) }

// DefaultMarketplaceConfig is the small test-scale marketplace.
func DefaultMarketplaceConfig() MarketplaceConfig { return synth.DefaultConfig() }

// ExperimentMarketplaceConfig is the laptop-scale marketplace used to
// regenerate the paper's tables and figures.
func ExperimentMarketplaceConfig() MarketplaceConfig { return synth.ExperimentConfig() }
