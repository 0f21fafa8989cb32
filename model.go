package prodsynth

import (
	"context"
	"io"

	"prodsynth/internal/categorize"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
)

// Model is the immutable artifact of the offline learning phase (§3): the
// selected attribute correspondences, the trained classifier weights, the
// scored candidate list, and the learning statistics. A Model is produced
// by Learn or LoadModel, is safe for concurrent use, and never changes —
// re-learning produces a new Model, which a serving System adopts
// atomically via System.Use.
//
// Models are plain values, independent of any catalog or process: persist
// one with SaveModel and warm-start a fresh process with LoadModel instead
// of re-running the offline phase. A loaded Model carries everything the
// runtime pipeline consumes; the offline phase's raw inputs (the enriched
// historical offers, the match set, the feature table) are learning-time
// diagnostics and do not survive a save/load round trip.
type Model struct {
	offline *core.OfflineResult
}

// Stats returns the offline learning statistics (the paper's §5.1 numbers).
func (m *Model) Stats() OfflineStats { return m.offline.Stats }

// Correspondences returns every selected attribute correspondence — the
// set schema reconciliation translates merchant attributes with. The
// returned slice is a fresh copy in unspecified order.
func (m *Model) Correspondences() []Correspondence {
	if m.offline.Correspondences == nil {
		return nil
	}
	return m.offline.Correspondences.All()
}

// ScoredCandidates returns every candidate correspondence with its
// classifier score, best first. The returned slice is a fresh copy.
func (m *Model) ScoredCandidates() []Correspondence {
	if m.offline.Scored == nil {
		return nil
	}
	out := make([]Correspondence, len(m.offline.Scored))
	copy(out, m.offline.Scored)
	return out
}

// Option adjusts the pipeline Config used by Learn, NewSystem, and the
// other option-taking entry points. Options apply in order over the zero
// Config (the paper's defaults: table extraction, UPC+title matching, all
// six features, class-weighted logistic regression, centroid fusion,
// threshold 0.5).
type Option func(*Config)

// WithConfig replaces the whole Config — the bridge for code that already
// assembles a Config value.
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

// WithWorkers bounds the pipeline's worker pools. Output is identical for
// every value; see Config.Workers.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithScoreThreshold sets the classifier probability above which a
// candidate becomes a correspondence (default 0.5).
func WithScoreThreshold(t float64) Option { return func(c *Config) { c.ScoreThreshold = t } }

// WithStrictPages makes a landing-page fetch failure fatal to a run —
// runtime and offline learning alike; see Config.StrictPages.
func WithStrictPages(strict bool) Option { return func(c *Config) { c.StrictPages = strict } }

// WithFetchPolicy wraps every landing-page fetch in the resilience layer:
// per-attempt deadlines, bounded retries with full-jitter backoff, a
// per-host circuit breaker, and a concurrency gate, with exact counters in
// each result's FetchReport. The fetcher is wrapped once per run (once per
// stream), so breaker state and counters span a whole batch or wave
// sequence; see Config.Fetch and DefaultFetchPolicy.
func WithFetchPolicy(p FetchPolicy) Option { return func(c *Config) { c.Fetch = p } }

// WithMatchRegistry gives the pipeline a private match-index cache with
// its own sharding and memory bound instead of the process-wide default.
func WithMatchRegistry(reg *MatchRegistry) Option {
	return func(c *Config) { c.Matcher.Registry = reg }
}

func buildConfig(opts []Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Learn runs the offline learning phase (§3) over historical offers:
// extraction, historical matching, feature computation, automatic training
// set construction, classifier training, and correspondence selection. It
// returns the learned artifact as an immutable Model.
//
// Cancelling ctx stops the phase at the next stage boundary (or between
// worker-pool jobs inside a stage) with ctx.Err(); the bounded pools are
// always joined before Learn returns, so cancellation leaks no goroutines.
//
// A configured WithFetchPolicy applies here too: historical-page fetches
// retry under the policy, and the learning run's fetch activity —
// including historical offers learned feed-only — is reported via
// Model.FetchReport.
func Learn(ctx context.Context, store *Catalog, historical []Offer, pages PageFetcher, opts ...Option) (*Model, error) {
	cfg := buildConfig(opts)
	off, err := core.RunOffline(ctx, store, historical, wrapFetch(pages, cfg), cfg)
	if err != nil {
		return nil, err
	}
	return &Model{offline: off}, nil
}

// FetchReport returns the fetch accounting of the learning run that
// produced the model: counters plus the historical offers learned from
// feed specs alone. Zero for models built from correspondences or loaded
// from a snapshot (learning-time diagnostics do not survive a save/load
// round trip).
func (m *Model) FetchReport() FetchReport { return m.offline.Fetch }

// ModelFromCorrespondences wraps an externally obtained correspondence set
// (e.g. rows parsed from the TSV interchange format of internal/correspond)
// as a Model, so the runtime pipeline can run without the offline phase.
// The title→category classifier is trained from the given catalog; offers
// that already carry a category bypass it.
func ModelFromCorrespondences(store *Catalog, correspondences []Correspondence) *Model {
	set := correspond.NewSet()
	for _, sc := range correspondences {
		set.Add(sc)
	}
	classifier := categorize.New()
	classifier.TrainFromCatalog(store)
	return &Model{offline: core.OfflineFromCorrespondences(set, classifier)}
}

// ModelFormatVersion is the version number embedded in the binary format
// written by SaveModel. LoadModel rejects every other version.
const ModelFormatVersion = core.SnapshotVersion

// ErrBadModel is wrapped by every LoadModel error caused by the input
// itself: bad magic, unsupported version, checksum mismatch, truncation,
// or a malformed payload.
var ErrBadModel = core.ErrBadSnapshot

// SaveModel writes the model as a versioned, checksummed binary snapshot.
// The bytes are deterministic: saving the same model twice yields
// identical output, so snapshots can be content-addressed and diffed.
func SaveModel(w io.Writer, m *Model) error {
	return core.EncodeOffline(w, m.offline)
}

// LoadModel reads a snapshot written by SaveModel, strictly: the magic,
// format version, payload length, and checksum are verified before any
// field is parsed, and corrupt or truncated input returns an error
// wrapping ErrBadModel — never a panic or a partial Model. The loaded
// Model synthesizes identically to the one that was saved (given a catalog
// with the same contents).
func LoadModel(r io.Reader) (*Model, error) {
	off, err := core.DecodeOffline(r)
	if err != nil {
		return nil, err
	}
	return &Model{offline: off}, nil
}
