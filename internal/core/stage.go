// Pull-based pipeline stages. The runtime pipeline's per-offer front half
// and per-cluster fusion are expressed as composable pipe.Stage values,
// so the one-shot entry points (RunRuntime, and PrepareIncoming /
// FuseClusters which it composes) and the streaming pipeline
// (internal/stream) execute the exact same stage bodies — the one-shot
// path drains a one-wave pipeline to slices, the stream pipelines waves
// through the same stages continuously. Each stage owns its scratch:
// nothing is materialized at wave size except where the algorithm itself
// needs the whole wave (the per-category partition and the global
// clustering step). The offline phase (RunOffline) reuses the per-offer
// front half and the per-category fan-out, so pipe.ParMap is the
// package's one worker pool.
//
// Stage map (runtime phase, Figure 4 right half):
//
//	offers ── Classify ── Extract ── [gather] ── Match+Reconcile ──► Prepared
//	                (per offer)        (per category, ordered merge)
//	clusters ── Fuse ──► products   (per cluster, ordered)
//
// Offline phase (Figure 4 left half), up to the feature computation:
//
//	historical ── Classify ── Extract ── [gather] ── Match ──► MatchSet
package core

import (
	"context"
	"fmt"
	"sort"

	"prodsynth/internal/catalog"
	"prodsynth/internal/categorize"
	"prodsynth/internal/cluster"
	"prodsynth/internal/extract"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
)

// ClassifyStage is the category classification stage: offers that lack a
// CategoryID get one from the classifier, when it has a non-empty class
// for the title — exactly categorize.Classifier.Assign, one offer at a
// time. Offers flow by value, so assignment never mutates the caller's
// slice — and when there is no classifier (every incoming offer carries a
// feed category) the stage is a pass-through that copies nothing at all.
func ClassifyStage(classifier *categorize.Classifier) pipe.Stage[offer.Offer, offer.Offer] {
	if classifier == nil {
		return func(src pipe.Source[offer.Offer]) pipe.Source[offer.Offer] { return src }
	}
	return pipe.Map(func(_ context.Context, o offer.Offer) (offer.Offer, error) {
		if o.CategoryID == "" {
			if cat, _ := classifier.Classify(o.Title); cat != "" {
				o.CategoryID = cat
			}
		}
		return o, nil
	})
}

// extractStage is the web-page attribute extraction stage: each offer's
// landing page is fetched and extracted pairs are merged into the offer
// spec (feed pairs win on name conflict). Fetches fan out across
// cfg.Workers goroutines; results are delivered in input order, so output
// is identical for every worker count. A failed fetch keeps the feed spec
// (recorded in the tally) unless cfg.StrictPages is set, in which case
// the first failure in input order ends the stage with a deterministic
// error.
//
// The stage context reaches each fetch: a context-aware fetcher
// (fetch.ContextPages, e.g. fetch.Resilient) observes pipeline
// cancellation and stage teardown mid-fetch — mid-retry, mid-backoff —
// instead of being abandoned; a plain PageFetcher is checked before the
// call and allowed to finish once started.
func extractStage(pages PageFetcher, cfg Config, tally *fetchTally) pipe.Stage[offer.Offer, offer.Offer] {
	return pipe.ParMap(cfg.Workers, func(ctx context.Context, o offer.Offer) (offer.Offer, error) {
		o = o.Clone()
		if pages == nil {
			return o, nil
		}
		tally.attempt()
		page, err := fetch.Call(ctx, pages, o.URL)
		if err != nil {
			if cfg.StrictPages {
				return offer.Offer{}, fmt.Errorf("core: strict pages: offer %s: %w", o.ID, err)
			}
			tally.degraded(o.ID)
			return o, nil
		}
		extracted := extract.WithOptions(page, cfg.Extraction)
		have := make(map[string]bool, len(o.Spec))
		for _, av := range o.Spec {
			have[av.Name] = true
		}
		for _, av := range extracted {
			if !have[av.Name] {
				o.Spec = append(o.Spec, av)
			}
		}
		return o, nil
	})
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

// perCategory is the per-category fan-out historical matching and runtime
// match+reconcile share. Offers are partitioned by category and fn runs
// once per category on the worker pool (pipe.ParMap, one task per
// category) with that category's offers in input order. fn returns one
// value per offer of sub, keep[j] saying whether sub[j]'s value survives.
// The surviving values are merged back in global input order — exactly
// the sequence a serial run over all offers yields, for every Workers
// value.
func perCategory[T any](ctx context.Context, offers []offer.Offer, cfg Config, fn func(m match.Matcher, sub []offer.Offer) (vals []T, keep []bool)) ([]T, error) {
	parts := partitionByCategory(offers)
	matcher := categoryMatcher(cfg, len(parts))
	type partOut struct {
		vals []T
		keep []bool
	}
	stage := pipe.ParMap(cfg.Workers, func(_ context.Context, part categorySlice) (partOut, error) {
		sub := make([]offer.Offer, len(part.indices))
		for j, gi := range part.indices {
			sub[j] = offers[gi]
		}
		vals, keep := fn(matcher, sub)
		return partOut{vals, keep}, nil
	})
	outs, err := pipe.Collect(ctx, stage(pipe.FromSlice(parts)))
	if err != nil {
		return nil, err
	}

	// Ordered merge: categories hold disjoint position sets, so walking
	// the global input order reassembles the serial sequence.
	vals := make([]T, len(offers))
	keep := make([]bool, len(offers))
	for pi, part := range parts {
		for j, gi := range part.indices {
			vals[gi], keep[gi] = outs[pi].vals[j], outs[pi].keep[j]
		}
	}
	kept := make([]T, 0, len(offers))
	for i := range vals {
		if keep[i] {
			kept = append(kept, vals[i])
		}
	}
	return kept, nil
}

// reconciled is one surviving offer of matchReconcile with its
// reconciliation counts.
type reconciled struct {
	offer offer.Offer
	stats reconcile.Stats
}

// matchReconcile is the back half of offer preparation over the
// per-category fan-out: matching (to exclude offers describing products
// the catalog already has, §1) and schema reconciliation of the
// survivors, merged back in global input order — output independent of
// Workers.
func matchReconcile(ctx context.Context, store *catalog.Store, offline *OfflineResult, enriched []offer.Offer, cfg Config) (*Prepared, error) {
	kept, err := perCategory(ctx, enriched, cfg, func(m match.Matcher, sub []offer.Offer) ([]reconciled, []bool) {
		var matches *match.MatchSet
		if !cfg.KeepMatchedIncoming {
			matches = m.Run(store, offer.NewSet(sub))
		}
		vals, keep := make([]reconciled, len(sub)), make([]bool, len(sub))
		for j, o := range sub {
			if matches != nil {
				if _, ok := matches.ProductFor(o.ID); ok {
					continue
				}
			}
			spec, st := reconcile.Offer(o, offline.Correspondences)
			ro := o.Clone()
			ro.Spec = spec
			vals[j], keep[j] = reconciled{ro, st}, true
		}
		return vals, keep
	})
	if err != nil {
		return nil, err
	}
	prep := &Prepared{
		Kept:            make([]offer.Offer, len(kept)),
		ExcludedMatched: len(enriched) - len(kept),
	}
	for i, r := range kept {
		prep.Kept[i] = r.offer
		prep.Reconcile.Add(r.stats)
	}
	return prep, nil
}

// FuseStage is the value fusion stage: one cluster in, one synthesized
// product out. Fusion fans out across cfg.Workers goroutines with results
// in cluster order; fusion is a pure function of each cluster's member
// offers, so re-fusing an extended cluster yields exactly what fusing it
// whole would have (the streaming pipeline's contract).
func FuseStage(cfg Config) pipe.Stage[cluster.Cluster, fusion.Synthesized] {
	cfg = cfg.withDefaults()
	return pipe.ParMap(cfg.Workers, func(_ context.Context, cl cluster.Cluster) (fusion.Synthesized, error) {
		return fusion.SynthesizeOne(cl, cfg.Fusion), nil
	})
}
