package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"prodsynth"
	"prodsynth/internal/catalog"
	"prodsynth/internal/categorize"
	"prodsynth/internal/cluster"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/eval"
	"prodsynth/internal/extract"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/htmlx"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
	"prodsynth/internal/serve"
	"prodsynth/internal/snapfmt"
	"prodsynth/internal/stream"
	"prodsynth/internal/text"
)

// The traced pass (-trace 1). It is one program for the whole system,
// whichever workload is named: it replays the batch_oneshot inputs
// single-threaded through the layers' public functions in pipeline order
// with a span around every call, does the same for the offline half, and
// times the stream, the codecs, the durable log and the wire path the
// same outside-in way. Count rows come from what the public API already
// returns during short versions of the workloads' own phases. Nothing
// here is gated; these rows say where an end-to-end number comes from.

const (
	// replays per flavour (traced, untraced) of the runtime replay.
	replays = 3
	// codecReps per codec direction.
	codecReps = 3
	// wireReps per wire-path step and request size.
	wireReps = 40
	// pipeItems through each pipe micro-stage.
	pipeItems = 200000
	// durableRecords appended to price the WAL.
	durableRecords = 20000
)

// layers is the state the traced pass shares between its sections.
type layers struct {
	b          *bench
	m          *market
	ref        *prodsynth.Result
	set        *correspond.Set        // the model's correspondences, as reconcile reads them
	classifier *categorize.Classifier // title → category, trained as Learn trains it
	offline    *core.OfflineResult    // the two above, as core and stream take them
	rec        *recorder
}

func runLayers(ctx context.Context, b *bench) error {
	bin, err := buildSynthd(ctx)
	if err != nil {
		return err
	}
	b.started = time.Now()
	m, err := b.newMarket(ctx)
	if err != nil {
		return err
	}
	b.endSetup()
	ref, err := b.reference(ctx, m, probed...)
	if err != nil {
		return err
	}
	l := &layers{b: b, m: m, ref: ref, set: correspond.NewSet(), classifier: categorize.New(), rec: newRecorder()}
	for _, sc := range m.model.Correspondences() {
		l.set.Add(sc)
	}
	l.classifier.TrainFromCatalog(m.ds.Catalog)
	l.offline = core.OfflineFromCorrespondences(l.set, l.classifier)

	sections := []struct {
		name string
		run  func(context.Context) error
	}{
		{"runtime replay", l.runtime},
		{"offline replay", l.offlineHalf},
		{"stream", l.stream},
		{"pipe", l.pipe},
		{"codecs", l.codecs},
		{"durable", l.durable},
		{"serve", func(ctx context.Context) error { return l.serve(ctx, bin) }},
	}
	for _, s := range sections {
		start := time.Now()
		if err := s.run(ctx); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		b.logf("traced pass: %s took %.1fs", s.name, time.Since(start).Seconds())
	}

	_, light := eval.GradeRecall(ref.Products, m.ds.Truth, m.ds.Universe, 10)
	grade := eval.GradeSynthesis(ref.Products, m.ds.Truth, m.ds.Universe)
	b.put("eval.attr_recall_light", "ratio", light.AttributeRecall)
	b.put("eval.products", "count", float64(grade.Products))
	b.put("eval.attrs_per_product", "count", grade.AvgAttrsPerProduct())
	b.put("trace.spans", "count", float64(len(l.rec.spans)))
	if b.spans != "" {
		if err := writeSpans(b.spans, l.rec.spans); err != nil {
			return err
		}
	}
	// The traced pass reports the layer table only: layer rows are named
	// <module>.<metric>, end-to-end metrics have no dot.
	for name := range b.res.Metrics {
		if !strings.Contains(name, ".") {
			delete(b.res.Metrics, name)
		}
	}
	return nil
}

// ms times fn in milliseconds.
func ms(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / 1e6
}

// replayed is what one runtime replay produced and counted.
type replayed struct {
	products   []prodsynth.Synthesized
	kept       []offer.Offer
	pages      int
	pageBytes  int
	pairs      int
	classified int
	feedOnly   int
	excluded   int
	reconcile  reconcile.Stats
	clusters   int
	skipped    int
}

// replay walks the incoming offers through the layers' public functions
// in the order core.PrepareIncoming and core.FuseClusters call them,
// single-threaded, one span per call. It must produce exactly what
// SynthesizeContext produces, or the layer table describes another
// program.
func (l *layers) replay(ctx context.Context, rec *recorder) replayed {
	var out replayed
	store := l.m.ds.Catalog
	incoming := l.m.ds.IncomingOffers
	matcher := match.Matcher{Workers: 1}
	var kept []offer.Offer

	rec.in("core.PrepareIncoming", func() {
		enriched := make([]offer.Offer, len(incoming))
		for i, o := range incoming {
			if o.CategoryID == "" {
				rec.in("categorize", func() {
					if cat, _ := l.classifier.Classify(o.Title); cat != "" {
						o.CategoryID = cat
					}
				})
				out.classified++
			}
			o = o.Clone()
			var page string
			var err error
			rec.in("fetch", func() { page, err = fetch.Call(ctx, l.m.pages, o.URL) })
			if err != nil {
				out.feedOnly++
				enriched[i] = o
				continue
			}
			var root *htmlx.Node
			rec.in("htmlx", func() { root = htmlx.Parse(page) })
			var spec catalog.Spec
			rec.in("extract", func() { spec = extract.FromDOM(root, extract.DefaultOptions) })
			out.pages++
			out.pageBytes += len(page)
			out.pairs += len(spec)
			enriched[i] = withExtracted(o, spec)
		}

		// Per category, categories in ID order, survivors merged back in
		// input order — what core's matchReconcile does across its pool.
		byCat := map[string][]int{}
		for i, o := range enriched {
			byCat[o.CategoryID] = append(byCat[o.CategoryID], i)
		}
		cats := make([]string, 0, len(byCat))
		for cat := range byCat {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		reconciled := make([]offer.Offer, len(enriched))
		keep := make([]bool, len(enriched))
		for _, cat := range cats {
			idx := byCat[cat]
			sub := make([]offer.Offer, len(idx))
			for j, gi := range idx {
				sub[j] = enriched[gi]
			}
			var matches *match.MatchSet
			rec.in("match", func() { matches = matcher.Run(store, offer.NewSet(sub)) })
			var survivors []offer.Offer
			var at []int
			for j, gi := range idx {
				if _, ok := matches.ProductFor(sub[j].ID); ok {
					out.excluded++
					continue
				}
				survivors = append(survivors, sub[j])
				at = append(at, gi)
			}
			var stats reconcile.Stats
			rec.in("reconcile", func() { survivors, stats = reconcile.Offers(survivors, l.set) })
			out.reconcile.Add(stats)
			for j, gi := range at {
				reconciled[gi] = survivors[j]
				keep[gi] = true
			}
		}
		for i := range enriched {
			if keep[i] {
				kept = append(kept, reconciled[i])
			}
		}
	})
	out.kept = kept

	rec.in("core.FuseClusters", func() {
		var clusters []cluster.Cluster
		var skipped []offer.Offer
		rec.in("cluster", func() { clusters, skipped = cluster.Group(kept, cluster.Options{}) })
		out.clusters, out.skipped = len(clusters), len(skipped)
		rec.in("fusion", func() { out.products = fusion.SynthesizeAll(clusters, fusion.Centroid{}) })
	})
	return out
}

// withExtracted merges a page's extracted pairs into the offer's spec the
// way core does: feed pairs win on a name conflict.
func withExtracted(o offer.Offer, extracted catalog.Spec) offer.Offer {
	have := make(map[string]bool, len(o.Spec))
	for _, av := range o.Spec {
		have[av.Name] = true
	}
	for _, av := range extracted {
		if !have[av.Name] {
			o.Spec = append(o.Spec, av)
		}
	}
	return o
}

// runtime is the runtime half: cold replay, traced and untraced warm
// replays, the real core functions at Workers 1, and the text layer.
func (l *layers) runtime(ctx context.Context) error {
	b, m := l.b, l.m
	offers := float64(len(m.ds.IncomingOffers))
	want := productDigest(l.ref.Products)

	// Cold: the match registry holds no index for this catalog.
	prodsynth.ReleaseMatchState(m.ds.Catalog)
	cold := newRecorder()
	first := l.replay(ctx, cold)
	b.digest("replay_products", productDigest(first.products))
	b.check(productDigest(first.products) == want, "replay digest differs from SynthesizeContext's: the layer table describes another program")
	b.check(first.feedOnly == 0, "fetch.feed_only = %d in the replay", first.feedOnly)
	coldMatch := float64(selfTimes(cold.spans)["match"].TotalNs) / 1e6

	// Warm, alternating untraced and traced so drift hits both alike.
	var tracedMs, plainMs []float64
	perRun := map[string][]float64{} // layer → total ns per traced replay
	for i := 0; i < replays; i++ {
		plainMs = append(plainMs, gcMs(func() { l.replay(ctx, nil) }))
		l.rec.nextRun()
		from := len(l.rec.spans)
		tracedMs = append(tracedMs, gcMs(func() { l.replay(ctx, l.rec) }))
		for name, lt := range selfTimes(l.rec.spans[from:]) {
			perRun[name] = append(perRun[name], float64(lt.SelfNs))
		}
	}
	// A replay's ≈ 21 k spans cost less than its own run-to-run noise:
	// traced − untraced came out anywhere from −7 % to +6 % (it is logged,
	// not reported). The share is priced instead: what an empty span
	// costs, times the spans one replay records, over the untraced replay.
	// That is a floor: it leaves out what recording does to the caches.
	traced, plain := median(tracedMs), median(plainMs)
	const emptySpans = 200000
	empty := newRecorder()
	spanNs := ms(func() {
		for i := 0; i < emptySpans; i++ {
			empty.in("empty", func() {})
		}
	}) * 1e6 / emptySpans
	perReplay := float64(len(l.rec.spans)) / replays
	b.put("trace.overhead_share", "ratio", spanNs*perReplay/(plain*1e6))
	b.logf("traced pass: replay %.1f ms untraced, %.1f ms traced (difference %+.1f%%); %.0f spans per replay at %.0f ns each",
		plain, traced, 100*(traced-plain)/plain, perReplay, spanNs)

	per := func(name string, n float64) []float64 {
		out := make([]float64, len(perRun[name]))
		for i, ns := range perRun[name] {
			out[i] = ns / n
		}
		return out
	}
	b.put("categorize.classify_ns_per_offer", "ns", per("categorize", max(1, float64(first.classified)))...)
	b.put("categorize.offers_classified", "count", float64(first.classified))
	b.put("fetch.call_ns_per_page", "ns", per("fetch", float64(first.pages))...)
	b.put("fetch.attempts", "count", float64(l.ref.Fetch.Attempts))
	b.put("fetch.feed_only", "count", float64(len(l.ref.Fetch.FeedOnly)))
	b.put("htmlx.parse_ns_per_page", "ns", per("htmlx", float64(first.pages))...)
	var mbps []float64
	for _, ns := range perRun["htmlx"] {
		mbps = append(mbps, float64(first.pageBytes)/1e6/(ns/1e9))
	}
	b.put("htmlx.parse_mb_per_s", "MB/s", mbps...)
	b.put("extract.from_dom_ns_per_page", "ns", per("extract", float64(first.pages))...)
	b.put("extract.pairs_per_page", "count", float64(first.pairs)/float64(first.pages))
	b.put("match.run_ns_per_offer", "ns", per("match", offers)...)
	// The whole match time of the replay that had to build the indexes.
	// Not cold minus warm: the build is ≈ 18 ms next to ≈ 20 ms of warm
	// matching, and the difference of two such replays came out negative
	// one run in two.
	b.put("match.cold_build_ms", "ms", coldMatch)
	b.put("match.excluded_share", "ratio", float64(first.excluded)/offers)
	b.put("reconcile.ns_per_offer", "ns", per("reconcile", offers-float64(first.excluded))...)
	b.put("reconcile.pairs_mapped_share", "ratio",
		float64(first.reconcile.PairsMapped)/float64(first.reconcile.PairsMapped+first.reconcile.PairsDropped))
	b.put("cluster.group_ns_per_offer", "ns", per("cluster", float64(len(first.kept)))...)
	b.put("cluster.clusters", "count", float64(first.clusters))
	b.put("cluster.skipped_no_key", "count", float64(first.skipped))
	b.put("fusion.ns_per_cluster", "ns", per("fusion", float64(first.clusters))...)
	var attrs int
	for _, p := range first.products {
		attrs += len(p.Spec)
	}
	b.put("fusion.attrs_per_product", "count", float64(attrs)/float64(len(first.products)))

	// The real core functions, one worker, against the sum of the leaf
	// layers above: what is left is core's own cost (pipe stages, clones,
	// partitioning, merges) — time that is in no leaf layer.
	var leaves float64
	for _, name := range []string{"categorize", "fetch", "htmlx", "extract", "match", "reconcile", "fusion"} {
		med := median(perRun[name])
		leaves += med / 1e6
	}
	one := core.Config{Workers: 1}
	var prepMs, fuseMs, selfMs, rate []float64
	for i := 0; i < replays; i++ {
		var prep *core.Prepared
		var err error
		p := gcMs(func() {
			prep, err = core.PrepareIncoming(ctx, m.ds.Catalog, l.offline, m.ds.IncomingOffers, m.pages, one)
		})
		if err != nil {
			return err
		}
		var clusters []cluster.Cluster
		g := ms(func() { clusters, _ = cluster.Group(prep.Kept, cluster.Options{}) })
		var products []prodsynth.Synthesized
		f := ms(func() { products, err = core.FuseClusters(ctx, clusters, one) })
		if err != nil {
			return err
		}
		b.check(productDigest(products) == want, "core functions at Workers 1 produced a different digest")
		prepMs, fuseMs = append(prepMs, p), append(fuseMs, f)
		selfMs = append(selfMs, p+f-leaves)
		rate = append(rate, offers/((p+g+f)/1e3))
	}
	b.put("core.prepare_ms", "ms", prepMs...)
	b.put("core.fuse_ms", "ms", fuseMs...)
	b.put("core.self_ms", "ms", selfMs...)
	b.put("core.workers1_offers_per_s", "offers/s", rate...)

	var tokens int
	var tokMs []float64
	for i := 0; i < replays; i++ {
		tokens = 0
		tokMs = append(tokMs, ms(func() {
			for _, o := range m.ds.IncomingOffers {
				tokens += len(text.DefaultTokenizer.Tokenize(o.Title))
			}
		})*1e6/offers)
	}
	b.put("text.tokenize_ns_per_title", "ns", tokMs...)
	b.put("text.tokens_per_title", "count", float64(tokens)/offers)
	return nil
}

// offlineHalf replays Learn's stages single-threaded: extraction,
// historical matching, features, training, scoring.
func (l *layers) offlineHalf(ctx context.Context) error {
	b, m, rec := l.b, l.m, l.rec
	rec.nextRun()
	from := len(rec.spans)
	historical := make([]offer.Offer, len(m.ds.HistoricalOffers))
	copy(historical, m.ds.HistoricalOffers)
	l.classifier.Assign(historical)
	var scored []correspond.Scored
	var model *correspond.Model
	var ft *correspond.FeatureTable
	var trainErr error
	rec.in("core.RunOffline", func() {
		for i, o := range historical {
			o = o.Clone()
			page, err := fetch.Call(ctx, m.pages, o.URL)
			if err == nil {
				var spec catalog.Spec
				rec.in("offline.extract", func() { spec = extract.FromDOM(htmlx.Parse(page), extract.DefaultOptions) })
				o = withExtracted(o, spec)
			}
			historical[i] = o
		}
		set := offer.NewSet(historical)
		var matches *match.MatchSet
		rec.in("match.historical", func() { matches = match.Matcher{Workers: 1}.Run(m.ds.Catalog, set) })
		rec.in("correspond.features", func() {
			ft = correspond.ComputeFeatures(m.ds.Catalog, set, matches, correspond.FeatureOptions{UseMatches: true, Workers: 1})
		})
		rec.in("correspond.train", func() { model, trainErr = correspond.Train(ft, correspond.TrainOptions{}) })
		if trainErr != nil {
			return
		}
		rec.in("correspond.score", func() { scored = model.ScoreAll(ft) })
	})
	if trainErr != nil {
		return trainErr
	}
	b.check(correspondenceDigest(correspond.Select(scored, 0.5).All()) == correspondenceDigest(m.model.Correspondences()),
		"offline replay selected different correspondences from Learn")
	times := selfTimes(rec.spans[from:])
	b.put("match.historical_s", "s", float64(times["match.historical"].TotalNs)/1e9)
	b.put("correspond.features_s", "s", float64(times["correspond.features"].TotalNs)/1e9)
	b.put("correspond.train_s", "s", float64(times["correspond.train"].TotalNs)/1e9)
	b.put("correspond.score_s", "s", float64(times["correspond.score"].TotalNs)/1e9)
	b.put("correspond.candidates", "count", float64(ft.Len()))
	b.put("correspond.training_size", "count", float64(model.TrainingSize))
	return nil
}

// stream compares the wave feed with one-shot on the same offers and
// opens the stream up: per-stage sums from stream.Run, cluster memory
// alone, wave latency tail.
func (l *layers) stream(ctx context.Context) error {
	b, m := l.b, l.m
	offers := m.ds.IncomingOffers
	var batchS, streamS, waveMs []float64
	var peak int
	for i := 0; i < replays; i++ {
		s, _, err := timed(func() error {
			_, err := m.sys.SynthesizeContext(ctx, offers, m.pages)
			return err
		})
		if err != nil {
			return err
		}
		batchS = append(batchS, s)
		s, _, err = timed(func() error {
			p, err := streamPass(ctx, m.sys, offers, m.pages)
			if err == nil {
				waveMs = append(waveMs, p.waveMs...)
				peak = max(peak, p.peakOpen)
			}
			return err
		})
		if err != nil {
			return err
		}
		streamS = append(streamS, s)
	}
	batch := median(batchS)
	streamed := median(streamS)
	b.put("stream.vs_batch_ratio", "ratio", batch/streamed)
	b.put("stream.wave_p99_ms", "ms", percentile(waveMs, 0.99))
	b.put("stream.open_clusters_peak", "count", float64(peak))

	// stream.Run reports what the root API folds away: time per stage.
	waves := make(chan []offer.Offer)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		defer close(waves)
		for i := 0; i < len(offers); i += waveOffers {
			select {
			case waves <- offers[i:min(i+waveOffers, len(offers))]:
			case <-runCtx.Done():
				return
			}
		}
	}()
	var final stream.Result
	for r := range stream.Run(runCtx, m.ds.Catalog, l.offline, waves, m.pages, core.Config{}, stream.Options{}) {
		if r.Err != nil {
			return fmt.Errorf("stream.Run wave %d: %w", r.Wave, r.Err)
		}
		if r.Final {
			final = r
		}
	}
	b.check(productDigest(final.Products) == productDigest(l.ref.Products), "stream.Run final products differ from the one-shot digest")
	b.put("stream.prepare_ms_sum", "ms", float64(final.PrepareElapsed)/1e6)
	b.put("stream.fuse_ms_sum", "ms", float64(final.FuseElapsed)/1e6)

	// Cluster memory alone: the reconciled survivors, wave by wave.
	prep, err := core.PrepareIncoming(ctx, m.ds.Catalog, l.offline, offers, m.pages, core.Config{})
	if err != nil {
		return err
	}
	var addNs []float64
	for i := 0; i < replays; i++ {
		mem := stream.NewMemory(stream.MemoryOptions{})
		addNs = append(addNs, ms(func() {
			for i := 0; i < len(prep.Kept); i += waveOffers {
				mem.Add(m.ds.Catalog, prep.Kept[i:min(i+waveOffers, len(prep.Kept))])
			}
		})*1e6/float64(len(prep.Kept)))
	}
	b.put("stream.memory_add_ns_per_offer", "ns", addNs...)
	return nil
}

// pipe prices the two stage kinds the stream is built from, with a body
// that does nothing: what is left is the hand-off.
func (l *layers) pipe(ctx context.Context) error {
	items := make([]int, pipeItems)
	if l.b.smoke {
		items = items[:1000]
	}
	identity := func(_ context.Context, v int) (int, error) { return v, nil }
	var parNs, bufNs []float64
	for i := 0; i < replays; i++ {
		var err error
		parNs = append(parNs, ms(func() {
			_, err = pipe.Collect(ctx, pipe.ParMap(4, identity)(pipe.FromSlice(items)))
		})*1e6/float64(len(items)))
		if err != nil {
			return err
		}
		bufNs = append(bufNs, ms(func() {
			_, err = pipe.Collect(ctx, pipe.Buffer[int](0)(pipe.FromSlice(items)))
		})*1e6/float64(len(items)))
		if err != nil {
			return err
		}
	}
	l.b.put("pipe.parmap_ns_per_item", "ns", parNs...)
	l.b.put("pipe.buffer_handoff_ns", "ns", bufNs...)
	return nil
}

// codecs times the four framed encodings on the filler catalog (large
// enough to time) and the learned model.
func (l *layers) codecs(ctx context.Context) error {
	b, m := l.b, l.m
	cats, prods := b.filler(fillerProducts)
	var addNs, byKeyNs []float64
	var store *prodsynth.Catalog
	for i := 0; i < codecReps; i++ {
		store = prodsynth.NewCatalog()
		var err error
		addNs = append(addNs, gcMs(func() { err = addAll(store, cats, prods) })*1e6/float64(len(prods)))
		if err != nil {
			return err
		}
		var missing int
		byKeyNs = append(byKeyNs, ms(func() {
			for _, p := range prods {
				key, _ := p.Key()
				if _, ok := store.ProductByKey(key); !ok {
					missing++
				}
			}
		})*1e6/float64(len(prods)))
		b.check(missing == 0, "%d filler products not found by key", missing)
	}
	b.put("catalog.add_product_ns", "ns", addNs...)
	b.put("catalog.product_by_key_ns", "ns", byKeyNs...)

	var encoded []byte
	var encMB, decMB, frameEnc, frameDec []float64
	for i := 0; i < codecReps; i++ {
		var buf bytes.Buffer
		var err error
		e := gcMs(func() { err = catalog.EncodeStore(&buf, store) })
		if err != nil {
			return err
		}
		encoded = buf.Bytes()
		mb := float64(len(encoded)) / 1e6
		var back *prodsynth.Catalog
		d := gcMs(func() { back, err = catalog.DecodeStore(bytes.NewReader(encoded)) })
		if err != nil {
			return err
		}
		b.check(back.NumProducts() == store.NumProducts(), "decoded catalog has %d products, encoded %d", back.NumProducts(), store.NumProducts())
		encMB, decMB = append(encMB, mb/(e/1e3)), append(decMB, mb/(d/1e3))

		// The frame alone (header, length, checksum) around the same bytes.
		magic := [4]byte{'B', 'N', 'C', 'H'}
		var framed bytes.Buffer
		fe := ms(func() { err = snapfmt.Encode(&framed, magic, 1, 1<<31, encoded) })
		if err != nil {
			return err
		}
		fd := ms(func() {
			_, err = snapfmt.Decode(bytes.NewReader(framed.Bytes()), magic, 1, 1<<31, errors.New("bench: bad frame"))
		})
		if err != nil {
			return err
		}
		frameEnc, frameDec = append(frameEnc, mb/(fe/1e3)), append(frameDec, mb/(fd/1e3))
	}
	b.put("catalog.encode_mb_per_s", "MB/s", encMB...)
	b.put("catalog.decode_mb_per_s", "MB/s", decMB...)
	b.put("catalog.snapshot_bytes_per_product", "bytes", float64(len(encoded))/float64(store.NumProducts()))
	b.put("snapfmt.frame_encode_mb_per_s", "MB/s", frameEnc...)
	b.put("snapfmt.frame_decode_mb_per_s", "MB/s", frameDec...)

	var modelEnc, modelDec []float64
	var modelBytes int
	for i := 0; i < codecReps; i++ {
		var buf bytes.Buffer
		var err error
		modelEnc = append(modelEnc, gcMs(func() { err = prodsynth.SaveModel(&buf, m.model) }))
		if err != nil {
			return err
		}
		modelBytes = buf.Len()
		modelDec = append(modelDec, gcMs(func() { _, err = prodsynth.LoadModel(&buf) }))
		if err != nil {
			return err
		}
	}
	b.put("core.model_encode_ms", "ms", modelEnc...)
	b.put("core.model_decode_ms", "ms", modelDec...)
	b.put("core.model_bytes", "bytes", float64(modelBytes))
	return nil
}

// durable prices the WAL from outside (the same inserts with and without
// a log under them, then the replay of exactly those records) and takes
// the read/write/space rows from one catalog_growth cycle, which trade
// against each other and so are reported together.
func (l *layers) durable(ctx context.Context) error {
	b, m := l.b, l.m
	cats, prods := b.filler(durableRecords)
	plain := gcMs(func() { addAll(prodsynth.NewCatalog(), cats, prods) }) //nolint:errcheck // timed twin of the checked call below

	dir := filepath.Join(b.dir, "wal-only")
	dur, err := prodsynth.OpenDurable(dir, durableOptions)
	if err != nil {
		return err
	}
	logged := gcMs(func() { err = addAll(dur.Catalog(), cats, prods) })
	if err != nil {
		dur.Close()
		return err
	}
	records := float64(len(cats) + len(prods))
	stats := dur.Stats()
	want, err := closeDurable(dur)
	if err != nil {
		return err
	}
	reopened, recoverMs, err := recoverDurable(dir)
	if err != nil {
		return err
	}
	replayedRecords := reopened.Stats().Recovery.ReplayedRecords
	got, err := closeDurable(reopened)
	if err != nil {
		return err
	}
	b.check(got == want, "catalog replayed from the WAL alone differs from the one logged")
	b.put("durable.append_ns_per_record", "ns", (logged-plain)*1e6/records)
	b.put("durable.replay_records_per_s", "1/s", float64(replayedRecords)/(recoverMs/1e3))
	b.put("durable.log_bytes_per_record", "bytes", float64(stats.LogDepthBytes)/float64(max(stats.LogDepthRecords, 1)))

	base, err := b.fillerCatalog(m.ds.Catalog, fillerProducts)
	if err != nil {
		return err
	}
	g, err := b.growthCycle(ctx, m, base, interleave(m.ds.IncomingOffers, growthWaves), 0)
	if err != nil {
		return err
	}
	b.put("durable.compact_ms", "ms", g.compactMs)
	b.put("durable.disk_bytes_per_snapshot_byte", "ratio", float64(g.diskBytes)/float64(g.snapBytes))
	b.put("match.registry_builds", "count", float64(g.builds))
	b.put("match.registry_deltas", "count", float64(g.deltas))
	return nil
}

// serve times the wire path step by step on one small and one large body,
// then runs a short serving phase for the rows only a live daemon has.
func (l *layers) serve(ctx context.Context, bin string) error {
	b, m := l.b, l.m
	mix := b.newRequestMix(m)
	small, err := prepareWire(ctx, m, mix.small)
	if err != nil {
		return err
	}
	large, err := prepareWire(ctx, m, mix.large)
	if err != nil {
		return err
	}
	wire := map[string]float64{}
	for _, size := range []struct {
		suffix string
		r      *wireRequest
	}{{"small", small[0]}, {"large", large[0]}} {
		var dec, lib, enc []float64
		for i := 0; i < wireReps; i++ {
			var req serve.SynthesizeRequest
			var offers []prodsynth.Offer
			var pages prodsynth.MapFetcher
			var err error
			dec = append(dec, ms(func() {
				if err = json.Unmarshal(size.r.body, &req); err != nil {
					return
				}
				offers = serve.OffersFromWire(req.Offers)
				docs := make([]prodsynth.PageDoc, len(req.Pages))
				for i, p := range req.Pages {
					docs[i] = prodsynth.PageDoc{URL: p.URL, HTML: p.HTML}
				}
				pages, err = prodsynth.NewMapFetcher(docs)
			}))
			if err != nil {
				return err
			}
			var res *prodsynth.Result
			lib = append(lib, ms(func() { res, err = m.sys.SynthesizeContext(ctx, offers, pages) }))
			if err != nil {
				return err
			}
			enc = append(enc, ms(func() { _, err = json.Marshal(serve.ResponseFromResult(res)) }))
			if err != nil {
				return err
			}
		}
		b.put("serve.decode_req_ms_"+size.suffix, "ms", dec...)
		b.put("serve.lib_ms_"+size.suffix, "ms", lib...)
		b.put("serve.encode_resp_ms_"+size.suffix, "ms", enc...)
		for _, v := range [][]float64{dec, lib, enc} {
			med := median(v)
			wire[size.suffix] += med
		}
	}

	bundle, err := b.saveBundle(m)
	if err != nil {
		return err
	}
	var loadMs []float64
	for i := 0; i < codecReps; i++ {
		_, d, err := loadBundle(bundle)
		if err != nil {
			return err
		}
		loadMs = append(loadMs, d)
	}
	b.put("serve.bundle_load_ms", "ms", loadMs...)

	budget := time.Duration(b.seconds * float64(time.Second))
	s, err := b.serveLoad(ctx, bin, bundle, small, large, mix, 1, budget/10, budget*3/10)
	if err != nil {
		return err
	}
	b.ops(s.attempted, s.failed)
	b.check(s.shed == 0, "serve.shed = %g", s.shed)
	smallP50 := median(s.smallMs)
	largeP50 := median(s.largeMs)
	b.put("serve.http_overhead_ms_small", "ms", smallP50-wire["small"])
	b.put("serve.http_overhead_ms_large", "ms", largeP50-wire["large"])
	b.put("serve.req_p99_ms", "ms", percentile(append(s.smallMs, s.largeMs...), 0.99))
	b.put("serve.generator_lag_max_ms", "ms", s.lagMaxMs)
	b.put("serve.shed", "count", s.shed)
	b.put("serve.peak_rss_mb", "MB", s.peakRSSMB)
	b.put("serve.body_kb_small", "KB", s.bodySmallKB)
	b.put("serve.body_kb_large", "KB", s.bodyLargeKB)
	return nil
}

// gcMs is ms after a forced collection, for calls long enough that the
// heap the previous section left behind would otherwise show.
func gcMs(fn func()) float64 {
	runtime.GC()
	return ms(fn)
}
