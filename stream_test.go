package prodsynth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prodsynth/internal/cluster"
	"prodsynth/internal/durable"
	"prodsynth/internal/fusion"
)

// learned builds a marketplace and a learned System over it.
func learned(t *testing.T, cfg Config) (*Marketplace, *System) {
	t.Helper()
	ds := marketplace(t)
	return ds, learnSystem(t, ds.Catalog, ds, WithConfig(cfg))
}

// contiguousWaves splits offers into n contiguous waves.
func contiguousWaves(offers []Offer, n int) [][]Offer {
	if n > len(offers) {
		n = len(offers)
	}
	waves := make([][]Offer, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(offers)/n, (i+1)*len(offers)/n
		waves = append(waves, offers[lo:hi])
	}
	return waves
}

// runStream feeds the waves through SynthesizeStream and collects every
// per-wave result plus the final one.
func runStream(t *testing.T, sys *System, waves [][]Offer, pages PageFetcher, opts StreamOptions) (perWave []StreamResult, final StreamResult) {
	t.Helper()
	in := make(chan []Offer)
	out, err := sys.SynthesizeStream(context.Background(), in, pages, opts)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, w := range waves {
			in <- w
		}
		close(in)
	}()
	sawFinal := false
	for r := range out {
		if r.Final {
			if sawFinal {
				t.Fatal("two final results")
			}
			sawFinal = true
			final = r
			continue
		}
		if sawFinal {
			t.Fatal("per-wave result after the final result")
		}
		perWave = append(perWave, r)
	}
	if !sawFinal {
		t.Fatal("stream closed without a final result")
	}
	return perWave, final
}

// TestSynthesizeStreamEquivalence is the stream≡batch acceptance suite:
// for every tested partitioning of the incoming offers into waves — one
// wave, a few contiguous waves, and one wave per offer — the streamed
// output with cluster memory (the final merged view, and the last
// emission per cluster along the way) must be byte-identical to one-shot
// Synthesize output: same clusters, same fused values, same order, same
// counters.
func TestSynthesizeStreamEquivalence(t *testing.T) {
	ds, sys := learned(t, Config{})
	fetcher := MapFetcher(ds.Pages)
	oneShot, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	want := productFingerprints(oneShot.Products)

	for _, n := range []int{1, 2, 3, 7, len(ds.IncomingOffers)} {
		waves := contiguousWaves(ds.IncomingOffers, n)
		perWave, final := runStream(t, sys, waves, fetcher, StreamOptions{})

		if len(perWave) != len(waves) {
			t.Fatalf("waves=%d: %d per-wave results", n, len(perWave))
		}
		for i, r := range perWave {
			if r.Wave != i {
				t.Errorf("waves=%d: result %d has Wave=%d (out of order)", n, i, r.Wave)
			}
			if r.Err != nil {
				t.Errorf("waves=%d: wave %d failed: %v", n, i, r.Err)
			}
			if r.Offers != len(waves[i]) {
				t.Errorf("waves=%d: wave %d Offers=%d, want %d", n, i, r.Offers, len(waves[i]))
			}
		}

		got := productFingerprints(final.Products)
		if len(got) != len(want) {
			t.Fatalf("waves=%d: %d merged products vs %d one-shot", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("waves=%d: product %d differs:\n  streamed: %s\n  one-shot: %s", n, i, got[i], want[i])
			}
		}
		if final.Wave != len(waves) {
			t.Errorf("waves=%d: final.Wave = %d", n, final.Wave)
		}
		if final.Clusters != oneShot.Clusters ||
			final.Offers != oneShot.Offers ||
			final.PairsMapped != oneShot.PairsMapped ||
			final.PairsDropped != oneShot.PairsDropped ||
			final.OffersWithoutKey != oneShot.OffersWithoutKey ||
			final.ExcludedMatched != oneShot.ExcludedMatched {
			t.Errorf("waves=%d: final counters %+v differ from one-shot %+v", n, final.Result, *oneShot)
		}

		// The merged view must also be reachable from the per-wave
		// emissions alone: for every final cluster, the last per-wave
		// emission under its key is its final state. (Earlier emissions
		// may sit under superseded keys — a merge or a lexicographically
		// smaller key value can re-label a cluster mid-stream — so the
		// map may hold more keys than there are final clusters.)
		last := make(map[string]string)
		for _, r := range perWave {
			for _, p := range r.Products {
				last[p.KeyAttr+"\x00"+p.Key] = productFingerprints([]Synthesized{p})[0]
			}
		}
		for i, p := range final.Products {
			if fp := last[p.KeyAttr+"\x00"+p.Key]; fp != want[i] {
				t.Errorf("waves=%d: last emission for %s = %s, want %s", n, p.Key, fp, want[i])
			}
		}
	}

	// Pipelining determinism: the same equivalence must hold across worker
	// counts — cross-wave overlap and fan-out width must never change a
	// byte of output.
	model := sys.Model()
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		psys := NewSystem(ds.Catalog, model, WithWorkers(workers))
		for _, n := range []int{1, 3, 7} {
			waves := contiguousWaves(ds.IncomingOffers, n)
			perWave, final := runStream(t, psys, waves, fetcher, StreamOptions{})
			if len(perWave) != len(waves) {
				t.Fatalf("%s waves=%d: %d per-wave results", name, n, len(perWave))
			}
			for i, r := range perWave {
				if r.Err != nil {
					t.Errorf("%s waves=%d: wave %d failed: %v", name, n, i, r.Err)
				}
				if r.Wave != i {
					t.Errorf("%s waves=%d: result %d has Wave=%d (out of order)", name, n, i, r.Wave)
				}
			}
			got := productFingerprints(final.Products)
			if len(got) != len(want) {
				t.Fatalf("%s waves=%d: %d merged products vs %d one-shot", name, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s waves=%d: product %d differs:\n  streamed: %s\n  one-shot: %s", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSynthesizeStreamMemoryDisabledMatchesBatches pins the memory-off
// semantics: every wave clusters independently, so the per-wave results
// reproduce SynthesizeBatches batch for batch.
func TestSynthesizeStreamMemoryDisabledMatchesBatches(t *testing.T) {
	ds, sys := learned(t, Config{})
	fetcher := MapFetcher(ds.Pages)
	waves := contiguousWaves(ds.IncomingOffers, 3)

	batched, err := sys.SynthesizeBatchesContext(context.Background(), waves, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	perWave, final := runStream(t, sys, waves, fetcher, StreamOptions{DisableClusterMemory: true})

	if len(perWave) != len(batched.Batches) {
		t.Fatalf("%d waves vs %d batches", len(perWave), len(batched.Batches))
	}
	for i, r := range perWave {
		b := batched.Batches[i]
		got, want := productFingerprints(r.Products), productFingerprints(b.Products)
		if len(got) != len(want) {
			t.Fatalf("wave %d: %d products vs batch %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("wave %d product %d differs:\n  stream: %s\n  batch:  %s", i, j, got[j], want[j])
			}
		}
		if r.Clusters != b.Clusters || r.Offers != b.Offers ||
			r.PairsMapped != b.PairsMapped || r.PairsDropped != b.PairsDropped ||
			r.OffersWithoutKey != b.OffersWithoutKey || r.ExcludedMatched != b.ExcludedMatched {
			t.Errorf("wave %d counters %+v differ from batch %+v", i, r.Result, *b)
		}
	}
	// With no memory there is nothing to merge: the final result carries
	// only the aggregate counters, which match the batch totals.
	if len(final.Products) != 0 {
		t.Errorf("final.Products = %d with memory disabled, want 0", len(final.Products))
	}
	if final.Clusters != batched.Total.Clusters || final.Offers != batched.Total.Offers {
		t.Errorf("final totals %+v differ from batch totals %+v", final.Result, batched.Total)
	}
}

// TestSynthesizeStreamMergesAcrossWaves splits one multi-offer cluster
// across the wave boundary and checks the headline behaviour: batch
// synthesis duplicates the product, streaming re-fuses the wave-1 cluster
// with the wave-2 evidence and synthesizes it once.
func TestSynthesizeStreamMergesAcrossWaves(t *testing.T) {
	ds, sys := learned(t, Config{})
	fetcher := MapFetcher(ds.Pages)
	oneShot, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, fetcher)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a cluster with at least two member offers and cut the waves
	// between its first and last member, so it must span both waves.
	idx := make(map[string]int, len(ds.IncomingOffers))
	for i, o := range ds.IncomingOffers {
		idx[o.ID] = i
	}
	var target *Synthesized
	mid := 0
	for i := range oneShot.Products {
		p := &oneShot.Products[i]
		if len(p.OfferIDs) < 2 {
			continue
		}
		lo, hi := len(ds.IncomingOffers), -1
		for _, id := range p.OfferIDs {
			if j, ok := idx[id]; ok {
				if j < lo {
					lo = j
				}
				if j > hi {
					hi = j
				}
			}
		}
		if hi > lo {
			target, mid = p, (lo+hi+1)/2
			break
		}
	}
	if target == nil {
		t.Fatal("no multi-offer cluster spans a wave boundary in this marketplace")
	}
	waves := [][]Offer{ds.IncomingOffers[:mid], ds.IncomingOffers[mid:]}
	wantFP := productFingerprints([]Synthesized{*target})[0]
	countKey := func(products []Synthesized) int {
		n := 0
		for _, p := range products {
			if p.KeyAttr == target.KeyAttr && p.Key == target.Key {
				n++
			}
		}
		return n
	}

	// Batch runs have no cross-batch memory: the product synthesizes in
	// both batches.
	batched, err := sys.SynthesizeBatchesContext(context.Background(), waves, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if got := countKey(batched.Total.Products); got < 2 {
		t.Fatalf("batches synthesized the split cluster %d times, want ≥ 2", got)
	}

	perWave, final := runStream(t, sys, waves, fetcher, StreamOptions{})
	if got := countKey(final.Products); got != 1 {
		t.Fatalf("stream merged view has the split cluster %d times, want 1", got)
	}
	// Wave 2 re-emits the cluster re-fused over the union of evidence —
	// identical to the one-shot product, full member list included.
	found := false
	for _, p := range perWave[1].Products {
		if p.KeyAttr == target.KeyAttr && p.Key == target.Key {
			found = true
			if fp := productFingerprints([]Synthesized{p})[0]; fp != wantFP {
				t.Errorf("wave-2 re-fusion = %s, want %s", fp, wantFP)
			}
		}
	}
	if !found {
		t.Error("wave 2 did not re-emit the extended cluster")
	}
	// And wave 1's emission was the partial state, not the union.
	if got := countKey(perWave[0].Products); got != 1 {
		t.Errorf("wave 1 emitted the cluster %d times, want 1", got)
	}
}

// TestSynthesizeStreamNotLearned mirrors the batch APIs' contract.
func TestSynthesizeStreamNotLearned(t *testing.T) {
	ds := marketplace(t)
	sys := NewSystem(ds.Catalog, nil)
	in := make(chan []Offer)
	if _, err := sys.SynthesizeStream(context.Background(), in, MapFetcher(ds.Pages), StreamOptions{}); !errors.Is(err, ErrNotLearned) {
		t.Fatalf("err = %v, want ErrNotLearned", err)
	}
}

// badOffer forges an incoming offer whose landing page cannot be fetched.
func badOffer(ds *Marketplace) Offer {
	o := ds.IncomingOffers[0].Clone()
	o.ID = "bad-offer"
	o.URL = "missing://nowhere"
	return o
}

// TestSynthesizeBatchesPartialFailure pins the fixed abort semantics:
// under StrictPages a failing batch records its error in that batch's
// Result and later batches still run.
func TestSynthesizeBatchesPartialFailure(t *testing.T) {
	ds, sys := learned(t, Config{StrictPages: true})
	fetcher := MapFetcher(ds.Pages)
	waves := contiguousWaves(ds.IncomingOffers, 2)
	batches := [][]Offer{waves[0], {badOffer(ds)}, waves[1]}

	res, err := sys.SynthesizeBatchesContext(context.Background(), batches, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 || res.Failed != 1 {
		t.Fatalf("Batches = %d, Failed = %d; want 3, 1", len(res.Batches), res.Failed)
	}
	if res.Batches[0].Err != nil || res.Batches[2].Err != nil {
		t.Errorf("healthy batches failed: %v, %v", res.Batches[0].Err, res.Batches[2].Err)
	}
	if res.Batches[1].Err == nil {
		t.Fatal("bad batch recorded no error")
	}
	if res.Batches[1].Offers != 1 || len(res.Batches[1].Products) != 0 {
		t.Errorf("failed batch Result = %+v", *res.Batches[1])
	}
	if res.Total.Offers != len(ds.IncomingOffers) {
		t.Errorf("Total.Offers = %d, want %d (failed batch excluded)", res.Total.Offers, len(ds.IncomingOffers))
	}
	if len(res.Total.Products) != len(res.Batches[0].Products)+len(res.Batches[2].Products) {
		t.Error("Total.Products disagrees with the successful batches")
	}
}

// TestSynthesizeStreamPartialFailure is the same contract on the stream:
// a failing wave reports Err, contributes nothing, and the feed goes on.
func TestSynthesizeStreamPartialFailure(t *testing.T) {
	ds, sys := learned(t, Config{StrictPages: true})
	fetcher := MapFetcher(ds.Pages)
	waves := contiguousWaves(ds.IncomingOffers, 2)
	perWave, final := runStream(t, sys, [][]Offer{waves[0], {badOffer(ds)}, waves[1]}, fetcher, StreamOptions{})

	if len(perWave) != 3 {
		t.Fatalf("per-wave results = %d, want 3", len(perWave))
	}
	if perWave[0].Err != nil || perWave[2].Err != nil {
		t.Errorf("healthy waves failed: %v, %v", perWave[0].Err, perWave[2].Err)
	}
	if perWave[1].Err == nil {
		t.Fatal("bad wave recorded no error")
	}
	if final.Err != nil {
		t.Errorf("final.Err = %v", final.Err)
	}
	if final.Offers != len(ds.IncomingOffers) {
		t.Errorf("final.Offers = %d, want %d (failed wave excluded)", final.Offers, len(ds.IncomingOffers))
	}
	if len(final.Products) == 0 {
		t.Error("no products despite two healthy waves")
	}
}

// gateFetcher blocks every Fetch until released, signalling the first
// call — the hook the cancellation test uses to cancel mid-wave.
type gateFetcher struct {
	pages    MapFetcher
	inflight chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newGateFetcher(pages MapFetcher) *gateFetcher {
	return &gateFetcher{pages: pages, inflight: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFetcher) Fetch(url string) (string, error) {
	g.once.Do(func() { close(g.inflight) })
	<-g.release
	return g.pages.Fetch(url)
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (with a little slack for runtime housekeeping).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCtxCancelNoLeak cancels the stream mid-wave — while the
// wave's page fetches are in flight — and asserts the pipeline drains
// cleanly: the result channel closes, no healthy result is fabricated,
// and every pipeline goroutine exits. The second scenario cancels while
// the consumer has stopped reading entirely, the easiest way to strand a
// sender.
func TestStreamCtxCancelNoLeak(t *testing.T) {
	ds, sys := learned(t, Config{})

	t.Run("cancel mid-wave", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		gate := newGateFetcher(MapFetcher(ds.Pages))
		in := make(chan []Offer, 1)
		out, err := sys.SynthesizeStream(ctx, in, gate, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		in <- ds.IncomingOffers[:8]
		<-gate.inflight // the wave is mid-extraction
		cancel()
		close(gate.release) // let the worker pool drain
		for r := range out {
			if r.Err == nil {
				t.Errorf("received a healthy result after cancellation: wave %d", r.Wave)
			}
		}
		waitGoroutines(t, baseline)
	})

	t.Run("cancel with absent consumer", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		gate := newGateFetcher(MapFetcher(ds.Pages))
		close(gate.release) // no blocking on fetches this time
		in := make(chan []Offer, 2)
		if _, err := sys.SynthesizeStream(ctx, in, gate, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		in <- ds.IncomingOffers[:8] // result is produced; nobody reads it
		in <- ds.IncomingOffers[8:16]
		<-gate.inflight
		cancel()
		waitGoroutines(t, baseline)
	})
}

// gateStrategy blocks every Fuse call until released, signalling the
// first call — the fuse-stage counterpart of gateFetcher.
type gateStrategy struct {
	inner    fusion.Strategy
	inflight chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newGateStrategy() *gateStrategy {
	return &gateStrategy{inner: fusion.Centroid{}, inflight: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateStrategy) Fuse(candidates []string) string {
	g.once.Do(func() { close(g.inflight) })
	<-g.release
	return g.inner.Fuse(candidates)
}

// blockAfterFetcher passes the first `after` fetches through and blocks
// every later one until released, signalling the first blocked call.
type blockAfterFetcher struct {
	pages    MapFetcher
	after    int64
	calls    atomic.Int64
	inflight chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newBlockAfterFetcher(pages MapFetcher, after int) *blockAfterFetcher {
	return &blockAfterFetcher{pages: pages, after: int64(after), inflight: make(chan struct{}), release: make(chan struct{})}
}

func (f *blockAfterFetcher) Fetch(url string) (string, error) {
	if f.calls.Add(1) > f.after {
		f.once.Do(func() { close(f.inflight) })
		<-f.release
	}
	return f.pages.Fetch(url)
}

// TestStreamPipelinedCancelTwoWavesInFlight is the cancellation guard for
// cross-wave pipelining: wave 1 is held mid-fuse (gated fusion strategy)
// while wave 2 is concurrently held mid-prepare (gated fetcher) — proving
// the overlap exists — then the context is cancelled with both stages
// blocked. The stream must close without a healthy result and every
// pipeline goroutine (stage boundary, both stages' worker pools) must
// exit.
func TestStreamPipelinedCancelTwoWavesInFlight(t *testing.T) {
	ds, v1 := learned(t, Config{})
	wave1 := ds.IncomingOffers[:8]
	wave2 := ds.IncomingOffers[8:16]

	// The gate only trips if wave 1 actually fuses something.
	sanity, err := v1.SynthesizeContext(context.Background(), wave1, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(sanity.Products) == 0 {
		t.Fatal("wave 1 would fuse nothing; pick a different slice")
	}

	baseline := runtime.NumGoroutine()
	gate := newGateStrategy()
	fetchGate := newBlockAfterFetcher(MapFetcher(ds.Pages), len(wave1))
	sys := NewSystem(ds.Catalog, v1.Model(), WithConfig(Config{Fusion: gate}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []Offer, 2)
	out, err := sys.SynthesizeStream(ctx, in, fetchGate, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in <- wave1
	in <- wave2
	<-gate.inflight      // wave 1 is mid-fuse...
	<-fetchGate.inflight // ...while wave 2 is mid-prepare, concurrently
	cancel()
	close(gate.release)
	close(fetchGate.release)
	for r := range out {
		if r.Err == nil {
			t.Errorf("received a healthy result after cancellation: wave %d", r.Wave)
		}
	}
	waitGoroutines(t, baseline)
}

// TestStreamConcurrentCatalogGrowth runs AddToCatalog concurrently with
// the stream — the mid-stream commit path. Under -race this is the data
// race guard for the registry, the catalog store, and the cluster
// memory's version invalidation; in any mode it must neither panic nor
// deadlock, and the stream must still deliver every wave plus a final
// result.
func TestStreamConcurrentCatalogGrowth(t *testing.T) {
	ds, sys := learned(t, Config{})
	fetcher := MapFetcher(ds.Pages)
	nWaves := 8
	if raceEnabled {
		nWaves = 4
	}
	waves := contiguousWaves(ds.IncomingOffers, nWaves)

	in := make(chan []Offer)
	out, err := sys.SynthesizeStream(context.Background(), in, fetcher, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, w := range waves {
			in <- w
		}
		close(in)
	}()

	var wg sync.WaitGroup
	got := 0
	sawFinal := false
	for r := range out {
		if r.Err != nil {
			t.Errorf("wave %d: %v", r.Wave, r.Err)
		}
		if r.Final {
			sawFinal = true
			continue
		}
		got++
		if len(r.Products) > 0 {
			wg.Add(1)
			go func(wave int, products []Synthesized) {
				defer wg.Done()
				sys.AddToCatalog(products, fmt.Sprintf("grow%d", wave))
			}(r.Wave, r.Products)
		}
	}
	wg.Wait()
	if got != len(waves) || !sawFinal {
		t.Fatalf("received %d wave results (want %d), final=%v", got, len(waves), sawFinal)
	}
}

// TestSynthesizeStreamEquivalenceWithSpill is the out-of-core leg of the
// equivalence matrix: with the cluster memory squeezed to tiny RAM bounds
// but a spill store attached (the pure in-RAM reference store, and the
// real file-backed store durability uses), the streamed output must stay
// byte-identical to the one-shot Synthesize — evicted clusters park
// out-of-core and revive instead of sealing early.
func TestSynthesizeStreamEquivalenceWithSpill(t *testing.T) {
	ds, base := learned(t, Config{})
	fetcher := MapFetcher(ds.Pages)
	oneShot, err := base.SynthesizeContext(context.Background(), ds.IncomingOffers, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	want := productFingerprints(oneShot.Products)

	factories := []struct {
		name string
		mk   func(t *testing.T) cluster.SpillFactory
	}{
		{"memory", func(t *testing.T) cluster.SpillFactory { return cluster.MemorySpillFactory{} }},
		{"file", func(t *testing.T) cluster.SpillFactory { return durable.SpillDir{Dir: t.TempDir()} }},
	}
	bounds := []StreamOptions{
		{MaxOpenClusters: 1},
		{MaxOpenClusters: 2, MaxIdleWaves: 1},
		{MaxIdleWaves: 1},
	}

	for _, f := range factories {
		for _, opts := range bounds {
			name := fmt.Sprintf("%s/open=%d/idle=%d", f.name, opts.MaxOpenClusters, opts.MaxIdleWaves)
			cfg := Config{}
			cfg.Spill = f.mk(t)
			sys := learnSystem(t, ds.Catalog, ds, WithConfig(cfg))
			for _, n := range []int{1, 3, 7, len(ds.IncomingOffers)} {
				waves := contiguousWaves(ds.IncomingOffers, n)
				perWave, final := runStream(t, sys, waves, fetcher, opts)
				for i, r := range perWave {
					if r.Err != nil {
						t.Errorf("%s waves=%d: wave %d failed: %v", name, n, i, r.Err)
					}
				}
				got := productFingerprints(final.Products)
				if len(got) != len(want) {
					t.Fatalf("%s waves=%d: %d merged products vs %d one-shot", name, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s waves=%d: product %d differs:\n  streamed: %s\n  one-shot: %s",
							name, n, i, got[i], want[i])
					}
				}
				if final.Clusters != oneShot.Clusters || final.Offers != oneShot.Offers {
					t.Errorf("%s waves=%d: final counters %+v differ from one-shot %+v",
						name, n, final.Result, *oneShot)
				}
				// The tightest bound with many waves must actually have
				// exercised the spill path.
				if opts.MaxOpenClusters == 1 && n == len(ds.IncomingOffers) {
					saw := false
					for _, r := range perWave {
						if r.SpilledClusters > 0 {
							saw = true
							break
						}
					}
					if !saw {
						t.Errorf("%s waves=%d: spill store never held a cluster", name, n)
					}
				}
			}
		}
	}
}
