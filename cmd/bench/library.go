package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"prodsynth"
	"prodsynth/internal/match"
)

// The two library workloads: the same offers through the one-shot entry
// point and through the wave stream. Per-offer work is identical, so any
// gap between them is hand-offs, per-wave materialisation and cluster
// memory — the pair answers "why does stream trail batch".

const (
	// waveOffers is the feed's wave size: 7 000 offers make 219 waves.
	waveOffers = 32
	// warmups before the timed repetitions: the first run pays the cold
	// match-index build, the second settles the heap.
	warmups = 2
	// minReps is the fewest timed repetitions a run reports a median of,
	// whatever -seconds says.
	minReps = 5
)

// timed runs fn after a forced collection, so every repetition starts
// from the same heap state, and returns its wall time and allocations.
func timed(fn func() error) (seconds float64, mallocs uint64, err error) {
	runtime.GC()
	before := mallocCount()
	start := time.Now()
	err = fn()
	seconds = time.Since(start).Seconds()
	return seconds, mallocCount() - before, err
}

// repeat calls rep until the deadline, at least minReps times.
func repeat(deadline time.Time, rep func(i int) error) error {
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// throughput holds the per-repetition samples the library workloads share.
type throughput struct {
	offersPerS, allocsPerOffer, ms []float64
}

func (t *throughput) add(offers int, seconds float64, mallocs uint64) {
	t.offersPerS = append(t.offersPerS, float64(offers)/seconds)
	t.allocsPerOffer = append(t.allocsPerOffer, float64(mallocs)/float64(offers))
	t.ms = append(t.ms, seconds*1e3)
}

func (t *throughput) report(b *bench) {
	b.put("offers_per_s", "offers/s", t.offersPerS...)
	b.put("allocs_per_offer", "count", t.allocsPerOffer...)
}

// runBatchOneshot: closed loop, one caller, System.SynthesizeContext over
// all incoming offers, in-memory pages, static catalog. The CPU pipeline
// at full width: htmlx, extract, match, reconcile, cluster and fusion do
// nearly all the work; stream, serve and durable do none.
func runBatchOneshot(ctx context.Context, b *bench) error {
	m, err := b.newMarket(ctx)
	if err != nil {
		return err
	}
	b.endSetup()
	ref, err := b.reference(ctx, m, "allocs_per_offer", "wave_p50_ms")
	if err != nil {
		return err
	}
	want := productDigest(ref.Products)
	offers := m.ds.IncomingOffers
	deltas := match.DefaultRegistry.Deltas()

	oneshot := func() error {
		res, err := m.sys.SynthesizeContext(ctx, offers, m.pages)
		if err != nil {
			return err
		}
		b.check(productDigest(res.Products) == want, "one-shot repetition digest differs from the first")
		return nil
	}
	for i := 0; i < warmups; i++ {
		if err := oneshot(); err != nil {
			return err
		}
	}
	var t throughput
	err = repeat(b.deadline(), func(int) error {
		seconds, mallocs, err := timed(oneshot)
		t.add(len(offers), seconds, mallocs)
		return err
	})
	if err != nil {
		return err
	}
	b.ops(len(t.ms), 0)
	t.report(b)
	// One-shot is a single wave: its wave latency is the run itself.
	b.put("wave_p50_ms", "ms", t.ms...)
	b.check(match.DefaultRegistry.Deltas() == deltas, "match registry applied deltas on a static catalog")
	return nil
}

// runStreamWaves: the same offers as a feed of 32-offer waves through
// System.SynthesizeStream, unbounded cluster memory, default StageBuffer,
// a consumer that drains immediately.
func runStreamWaves(ctx context.Context, b *bench) error {
	m, err := b.newMarket(ctx)
	if err != nil {
		return err
	}
	b.endSetup()
	ref, err := b.reference(ctx, m, "allocs_per_offer", "wave_p50_ms")
	if err != nil {
		return err
	}
	want := productDigest(ref.Products)
	offers := m.ds.IncomingOffers

	var waveMs []float64
	pass := func(keep bool) error {
		p, err := streamPass(ctx, m.sys, offers, m.pages)
		if err != nil {
			return err
		}
		b.check(productDigest(p.final.Products) == want, "stream final products differ from the one-shot digest")
		if keep {
			waveMs = append(waveMs, p.waveMs...)
		}
		return nil
	}
	for i := 0; i < warmups; i++ {
		if err := pass(false); err != nil {
			return err
		}
	}
	var t throughput
	err = repeat(b.deadline(), func(int) error {
		seconds, mallocs, err := timed(func() error { return pass(true) })
		t.add(len(offers), seconds, mallocs)
		return err
	})
	if err != nil {
		return err
	}
	b.ops(len(waveMs), 0)
	t.report(b)
	b.put("wave_p50_ms", "ms", waveMs...)
	return nil
}

// streamed is one full pass of the feed through SynthesizeStream.
type streamed struct {
	final prodsynth.StreamResult
	// waveMs is, per wave, channel-send accepted → that wave's result
	// received.
	waveMs   []float64
	peakOpen int
}

// streamPass feeds offers as waveOffers-sized waves and drains the
// results as they arrive. The producer goroutine ends when every wave is
// sent or ctx is cancelled, and is always joined.
func streamPass(ctx context.Context, sys *prodsynth.System, offers []prodsynth.Offer, pages prodsynth.PageFetcher) (*streamed, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := (len(offers) + waveOffers - 1) / waveOffers
	sent := make([]time.Time, n)
	waves := make(chan []prodsynth.Offer)
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		defer close(waves)
		for i := 0; i < n; i++ {
			select {
			case waves <- offers[i*waveOffers : min((i+1)*waveOffers, len(offers))]:
				sent[i] = time.Now()
			case <-ctx.Done():
				return
			}
		}
	}()
	results, err := sys.SynthesizeStream(ctx, waves, pages, prodsynth.StreamOptions{})
	if err != nil {
		cancel()
		producer.Wait()
		return nil, err
	}
	out := &streamed{}
	received := make([]time.Time, 0, n)
	var failed error
	for r := range results {
		switch {
		case r.Err != nil && failed == nil:
			failed = fmt.Errorf("wave %d: %w", r.Wave, r.Err)
		case r.Final:
			out.final = r
		default:
			received = append(received, time.Now())
			out.peakOpen = max(out.peakOpen, r.OpenClusters)
		}
	}
	cancel()
	producer.Wait()
	if failed != nil {
		return nil, failed
	}
	if !out.final.Final || len(received) != n {
		return nil, fmt.Errorf("stream ended early: %d of %d wave results, final=%v", len(received), n, out.final.Final)
	}
	// sent is read only after the producer is joined.
	for i, at := range received {
		out.waveMs = append(out.waveMs, float64(at.Sub(sent[i]))/1e6)
	}
	return out, nil
}
