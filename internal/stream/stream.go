package stream

import (
	"context"
	"time"

	"prodsynth/internal/catalog"
	"prodsynth/internal/cluster"
	"prodsynth/internal/core"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
)

// Options tunes a streaming run. The zero value keeps unbounded cluster
// memory.
type Options struct {
	// MaxOpenClusters bounds the cluster memory (LRU); 0 = unbounded.
	MaxOpenClusters int
	// MaxIdleWaves expires clusters untouched for more than this many
	// waves; 0 = never. See MemoryOptions.MaxIdleWaves.
	MaxIdleWaves int
	// DisableMemory turns cross-batch cluster memory off: every wave
	// clusters independently, so each wave's result equals a one-shot
	// core.RunRuntime over that wave (a product split across waves
	// synthesizes once per wave). With no memory there is nothing to
	// seal: no result carries Sealed events, and every wave's products
	// are as final as they will ever be.
	DisableMemory bool
}

// Sealed is one per-cluster seal event: the cross-batch memory decided
// this cluster can no longer grow, so its product is final rather than
// provisional. IDs are cluster creation ordinals, unique per stream, and
// each cluster seals exactly once — through exactly one of the eviction
// reasons or the closing result.
type Sealed struct {
	// ClusterID is the cluster's creation ordinal (the order snapshots
	// and final products are emitted in).
	ClusterID int
	// Wave is the wave result the seal was reported on (0-based); for
	// SealClose it is the closing result's wave count.
	Wave int
	// Reason says why the cluster sealed.
	Reason SealReason
	// Product is the cluster's final fused product.
	Product fusion.Synthesized
}

// Result is one emission of the streaming pipeline: per-wave results in
// input order, then exactly one closing result with Final set.
type Result struct {
	// Wave is the 0-based index of the wave this result covers. On the
	// final result it is the number of waves consumed.
	Wave int
	// Final marks the closing result emitted after the input channel
	// closes: Products holds the merged view of the stream (the final
	// fused state of every open cluster, in cluster creation order) and
	// the counters aggregate every successful wave.
	Final bool
	// Err reports a failed wave. The wave contributes nothing to cluster
	// memory or the final counters; later waves still run.
	Err error
	// Products are the fused products of every cluster this wave created
	// or extended (for an extended cluster: re-fused over the union of
	// its evidence across waves), in cluster creation order.
	Products []fusion.Synthesized
	// Sealed are the clusters sealed by this result: per-wave results
	// carry the wave's evictions (LRU, idle, invalidation), each with the
	// cluster's final fused product; the closing result carries one
	// SealClose event per merged product, aligned 1:1 with Products.
	Sealed []Sealed
	// Reconcile counts the wave's pair translation outcomes.
	Reconcile reconcile.Stats
	// OffersWithoutKey counts reconciled offers with no clustering key.
	OffersWithoutKey int
	// ExcludedMatched counts offers dropped as matching the catalog.
	ExcludedMatched int
	// Fetch accounts the wave's landing-page fetches (counters plus the
	// offers that proceeded feed-only); on the final result, the
	// aggregate over every successful wave.
	Fetch fetch.Report
	// Offers is the number of offers the wave carried.
	Offers int
	// Clusters is the number of clusters fused (len(Products)).
	Clusters int
	// OpenClusters is the cluster-memory size after the wave — the
	// quantity Options.MaxOpenClusters bounds.
	OpenClusters int
	// SpilledClusters is the number of clusters parked in the spill
	// store after the wave (0 when no spill store is configured); on the
	// final result, the count still spilled at close, each of which the
	// closing result merges back into Products.
	SpilledClusters int
	// PrepareElapsed is the wall time the wave spent in the prepare stage
	// (classify, extract, match-exclude, reconcile); with pipelining it
	// overlaps earlier waves' FuseElapsed.
	PrepareElapsed time.Duration
	// FuseElapsed is the wall time the wave spent in the fuse stage
	// (cluster memory, value fusion, seal handling).
	FuseElapsed time.Duration
	// Elapsed is the wave's total processing wall time
	// (PrepareElapsed+FuseElapsed). On the final result it is the total
	// processing time (summed waves plus the final fuse), excluding time
	// spent waiting for input. With pipelining, summed Elapsed exceeds
	// wall time — that overlap is the point.
	Elapsed time.Duration
}

// preparedWave is the prepare stage's per-wave output, crossing the stage
// boundary to the fuse stage.
type preparedWave struct {
	wave    int
	offers  int
	prep    *core.Prepared
	err     error
	elapsed time.Duration
}

// Run starts the streaming pipeline: a goroutine that consumes offer
// waves from waves and emits one Result per wave, in input order, on the
// returned channel. The channel is unbuffered, so the consumer applies
// backpressure on the fuse stage. The pipeline is two pull-based stages
// with a one-wave hand-off between them:
//
//	waves ── prepare (classify·extract·match·reconcile)
//	      ──[pipe.Buffer(0)]── fuse (memory·fusion·seals) ── out
//
// so wave n+1's prepare overlaps wave n's fuse while emission order stays
// input order. When waves closes, one closing Result (Final=true) carries
// the merged stream view, aggregate counters, and the SealClose events;
// then the channel closes. When ctx is cancelled the pipeline stops —
// whatever stage each in-flight wave is in — and closes the channel
// without the final result. Either way every pipeline goroutine exits:
// cancel ctx or close waves to release them, even if the consumer has
// stopped reading.
func Run(ctx context.Context, store *catalog.Store, offline *core.OfflineResult, waves <-chan []offer.Offer, pages core.PageFetcher, cfg core.Config, opts Options) <-chan Result {
	out := make(chan Result)
	//lint:allow spawncheck pipeline goroutine: lifecycle is ctx cancellation or closing waves, both close out; leak-guarded by TestStreamCtxCancelNoLeak
	go func() {
		defer close(out)
		var mem *Memory
		if !opts.DisableMemory {
			mopts := MemoryOptions{
				KeyAttrs:     cfg.ClusterKeys,
				MaxClusters:  opts.MaxOpenClusters,
				MaxIdleWaves: opts.MaxIdleWaves,
			}
			// One spill store per stream, owned here. A factory failure
			// degrades to the unspilled behaviour (bounds seal) rather
			// than failing the stream before it starts.
			if cfg.Spill != nil {
				if sp, err := cfg.Spill.NewSpill(); err == nil {
					mopts.Spill = sp
					defer sp.Close()
				}
			}
			mem = NewMemory(mopts)
		}

		// Prepare stage: pulls waves in input order and runs the shared
		// per-offer front half. Wave failures (StrictPages, etc.) ride
		// inside the item — only upstream exhaustion or cancellation ends
		// the stage — so later waves still run after a failed one.
		nextWave := 0
		prepared := pipe.Map(func(ctx context.Context, batch []offer.Offer) (preparedWave, error) {
			start := time.Now()
			pw := preparedWave{wave: nextWave, offers: len(batch)}
			nextWave++
			prep, err := core.PrepareIncoming(ctx, store, offline, batch, pages, cfg)
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				pw.err = err
			} else {
				pw.prep = prep
			}
			pw.elapsed = time.Since(start)
			return pw, nil
		})(pipe.FromChan(waves))
		// The stage boundary: prepare moves to its own goroutine and works
		// at most one wave ahead of fuse.
		prepared = pipe.Buffer[preparedWave](0)(prepared)

		var total Result
		for {
			pw, ok, err := prepared.Next(ctx)
			if err != nil {
				return // cancelled; contract: close without final result
			}
			if !ok {
				final := finalResult(ctx, mem, cfg, total)
				if final.Err != nil {
					// Cancelled during the closing fuse: the contract is
					// "cancellation closes the channel without the final
					// result", so never deliver a half-built Final (the
					// send below could win a race against ctx.Done).
					return
				}
				select {
				case out <- final:
				case <-ctx.Done():
				}
				return
			}
			r := fuseWave(ctx, store, pw, cfg, mem)
			if r.Err == nil {
				accumulate(&total, r)
			}
			total.Wave++
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
			if ctx.Err() != nil {
				return
			}
		}
	}()
	return out
}

// fuseWave is the fuse stage body: one prepared wave through the cluster
// memory, value fusion, and seal handling. ctx is only consulted between
// steps: a cancellation mid-step lets the bounded worker pools drain (they
// hold no external resources) and surfaces as the wave's Err.
func fuseWave(ctx context.Context, store *catalog.Store, pw preparedWave, cfg core.Config, mem *Memory) Result {
	r := Result{Wave: pw.wave, Offers: pw.offers, PrepareElapsed: pw.elapsed}
	if pw.err != nil {
		r.Err = pw.err
		r.Elapsed = r.PrepareElapsed
		return r
	}
	start := time.Now()
	r.Reconcile = pw.prep.Reconcile
	r.ExcludedMatched = pw.prep.ExcludedMatched
	r.Fetch = pw.prep.Fetch

	var touched []cluster.Cluster
	var skipped []offer.Offer
	if mem != nil {
		touched, skipped = mem.Add(store, pw.prep.Kept)
		r.OpenClusters = mem.Len()
		r.SpilledClusters = mem.SpilledLen()
	} else {
		touched, skipped = cluster.Group(pw.prep.Kept, cluster.Options{KeyAttrs: cfg.ClusterKeys})
	}
	r.OffersWithoutKey = len(skipped)
	r.Clusters = len(touched)

	var err error
	if r.Products, err = core.FuseClusters(ctx, touched, cfg); err != nil {
		r.Err = err
	} else if mem != nil {
		r.Sealed, err = sealEvents(ctx, mem.DrainEvicted(), cfg, pw.wave)
		if err != nil {
			r.Err = err
		}
	}
	r.FuseElapsed = time.Since(start)
	r.Elapsed = r.PrepareElapsed + r.FuseElapsed
	return r
}

// sealEvents fuses the evicted clusters' seal-time snapshots into their
// final products. Eviction is rare (it only happens under memory bounds),
// so the extra fuse work is per-eviction, not per-wave.
func sealEvents(ctx context.Context, evicted []Evicted, cfg core.Config, wave int) ([]Sealed, error) {
	if len(evicted) == 0 {
		return nil, nil
	}
	clusters := make([]cluster.Cluster, len(evicted))
	for i, ev := range evicted {
		clusters[i] = ev.Cluster
	}
	products, err := core.FuseClusters(ctx, clusters, cfg)
	if err != nil {
		return nil, err
	}
	sealed := make([]Sealed, len(evicted))
	for i, ev := range evicted {
		sealed[i] = Sealed{ClusterID: ev.ID, Wave: wave, Reason: ev.Reason, Product: products[i]}
	}
	return sealed, nil
}

// accumulate folds one successful wave into the running totals the final
// result reports. Per-wave Sealed events are not folded in: they were
// already delivered, and the closing result carries only its own SealClose
// events.
func accumulate(total *Result, r Result) {
	total.Reconcile.Add(r.Reconcile)
	total.OffersWithoutKey += r.OffersWithoutKey
	total.ExcludedMatched += r.ExcludedMatched
	total.Fetch.Add(r.Fetch)
	total.Offers += r.Offers
	total.Clusters += r.Clusters
	total.PrepareElapsed += r.PrepareElapsed
	total.FuseElapsed += r.FuseElapsed
	total.Elapsed += r.Elapsed
}

// finalResult builds the closing emission. With cluster memory, Products
// is the final fused state of every open cluster in creation order — for
// an unbounded memory over an uninterrupted stream, byte-identical to a
// one-shot run over the concatenated waves — Clusters counts those
// clusters, and Sealed carries one SealClose event per product, aligned
// 1:1 with Products (same order, same fused values). With memory disabled
// there is nothing to merge or seal (every wave already emitted its own
// clusters), so Products and Sealed are nil and Clusters keeps the summed
// per-wave count.
func finalResult(ctx context.Context, mem *Memory, cfg core.Config, total Result) Result {
	final := total
	final.Final = true
	if mem != nil {
		start := time.Now()
		closing := mem.CloseAll()
		merged := make([]cluster.Cluster, len(closing))
		for i, ev := range closing {
			merged[i] = ev.Cluster
		}
		products, err := core.FuseClusters(ctx, merged, cfg)
		if err != nil {
			// Cancelled during the closing fuse: record it so Run drops
			// the final result instead of delivering a half-built one.
			final.Err = err
			return final
		}
		final.Products = products
		final.Clusters = len(merged)
		final.OpenClusters = mem.Len()
		final.SpilledClusters = mem.SpilledLen()
		final.Sealed = make([]Sealed, len(closing))
		for i, ev := range closing {
			final.Sealed[i] = Sealed{ClusterID: ev.ID, Wave: total.Wave, Reason: SealClose, Product: products[i]}
		}
		closingElapsed := time.Since(start)
		final.FuseElapsed += closingElapsed
		final.Elapsed += closingElapsed
	}
	return final
}
