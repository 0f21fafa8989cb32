// Pipeline stages. The runtime pipeline's per-offer front half and
// per-cluster fusion are each one pipe.MapSlice over a slice the caller
// holds, so the one-shot entry points (RunRuntime, and PrepareIncoming /
// FuseClusters which it composes) and the streaming pipeline
// (internal/stream) execute the exact same stage bodies — the one-shot
// path runs one wave, the stream runs each wave through the same stages.
// The offline phase (RunOffline) runs the same front half without
// reconciliation, so pipe's pool is the package's one worker pool.
//
// Stage map (runtime phase, Figure 4 right half):
//
//	offers ── classify·extract·match·reconcile ──► Prepared   (per offer)
//	clusters ── fuse ──► products                             (per cluster)
//
// Offline phase (Figure 4 left half), up to the feature computation:
//
//	historical ── classify·extract·match ──► MatchSet          (per offer)
package core

import (
	"context"
	"fmt"

	"prodsynth/internal/catalog"
	"prodsynth/internal/categorize"
	"prodsynth/internal/correspond"
	"prodsynth/internal/extract"
	"prodsynth/internal/fetch"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
)

// offerOut is one offer after the front half: classified, extracted and,
// unless it matched, reconciled into catalog vocabulary.
type offerOut struct {
	offer   offer.Offer
	match   match.Match
	matched bool
	stats   reconcile.Stats
}

// frontHalf runs the per-offer front half over offers on one
// pipe.MapSlice of cfg.Workers goroutines, results in input order, so
// output is identical for every worker count. Each offer is:
//
//  1. classified, when it has no CategoryID and classifier (possibly nil)
//     has a non-empty class for the title;
//  2. cloned, so the caller's offers are never mutated;
//  3. enriched with the pairs extracted from its landing page (feed pairs
//     win on name conflict), when pages is non-nil;
//  4. matched against the catalog through one match.Bound for the call,
//     which takes each category's title index from the registry once;
//  5. reconciled through correspondences, when it matched nothing and
//     correspondences is non-nil (runtime; the offline phase passes nil).
//
// A failed fetch keeps the feed spec (recorded in the tally) unless
// cfg.StrictPages is set, in which case the first failure in input order
// fails the run with a deterministic error. The stage context reaches
// each fetch: a context-aware fetcher (fetch.ContextPages, e.g.
// fetch.Resilient) observes cancellation mid-fetch — mid-retry,
// mid-backoff — instead of being abandoned; a plain PageFetcher is
// checked before the call and allowed to finish once started.
func frontHalf(ctx context.Context, store *catalog.Store, classifier *categorize.Classifier, correspondences *correspond.Set, offers []offer.Offer, pages PageFetcher, cfg Config, tally *fetchTally) ([]offerOut, error) {
	matcher := match.Matcher{Registry: cfg.Registry}.Bind(store)
	return pipe.MapSlice(ctx, cfg.Workers, offers, func(ctx context.Context, o offer.Offer) (offerOut, error) {
		if classifier != nil && o.CategoryID == "" {
			if cat, _ := classifier.Classify(o.Title); cat != "" {
				o.CategoryID = cat
			}
		}
		o = o.Clone()
		if pages != nil {
			tally.attempt()
			page, err := fetch.Call(ctx, pages, o.URL)
			switch {
			case err != nil && cfg.StrictPages:
				return offerOut{}, fmt.Errorf("core: strict pages: offer %s: %w", o.ID, err)
			case err != nil:
				tally.degraded(o.ID)
			default:
				o.Spec = mergeExtracted(o.Spec, extract.WithOptions(page, cfg.Extraction))
			}
		}
		out := offerOut{offer: o}
		out.match, out.matched = matcher.Match(o)
		if correspondences != nil && !out.matched {
			out.offer.Spec, out.stats = reconcile.Offer(o, correspondences)
		}
		return out, nil
	})
}

// mergeExtracted appends the extracted pairs whose names the feed spec
// does not already carry.
func mergeExtracted(spec, extracted catalog.Spec) catalog.Spec {
	have := make(map[string]bool, len(spec))
	for _, av := range spec {
		have[av.Name] = true
	}
	for _, av := range extracted {
		if !have[av.Name] {
			spec = append(spec, av)
		}
	}
	return spec
}

// categoryOffer is the key matches are looked up by: an offer's category
// and ID.
type categoryOffer struct{ category, id string }

func (r offerOut) key() categoryOffer { return categoryOffer{r.offer.CategoryID, r.offer.ID} }

// firstMatches maps each (category, offer ID) to its first match in input
// order. Offers that share both with a matched offer count as matched:
// the runtime excludes them, and the offline phase credits them with that
// first match.
func firstMatches(outs []offerOut) map[categoryOffer]match.Match {
	first := make(map[categoryOffer]match.Match)
	for _, r := range outs {
		if _, seen := first[r.key()]; r.matched && !seen {
			first[r.key()] = r.match
		}
	}
	return first
}
