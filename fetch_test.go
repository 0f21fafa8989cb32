package prodsynth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// recoveryPolicy is the acceptance-test fetch policy: three attempts with
// fake-clock backoff, breaker disabled so lenient-mode output stays
// byte-identical across worker interleavings (see FetchPolicy's
// determinism note).
func recoveryPolicy() FetchPolicy {
	return FetchPolicy{
		MaxAttempts: 3,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
		JitterSeed:  7,
		Clock:       NewFakeFetchClock(),
	}
}

// TestFetchPolicyRecoversByteIdentical is the headline acceptance
// criterion: under a seeded fault schedule where every URL fails exactly
// twice and then succeeds, a lenient run with three attempts recovers
// every page — output byte-identical to the no-fault run — and the
// FetchReport counts match the schedule exactly.
func TestFetchPolicyRecoversByteIdentical(t *testing.T) {
	ds := marketplace(t)
	model, err := Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}

	clean := NewSystem(ds.Catalog, model)
	noFault, err := clean.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	want := productFingerprints(noFault.Products)

	sys := NewSystem(ds.Catalog, model, WithFetchPolicy(recoveryPolicy()))
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(2), NewFakeFetchClock())
	res, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, faulty)
	if err != nil {
		t.Fatal(err)
	}

	got := productFingerprints(res.Products)
	if len(got) != len(want) {
		t.Fatalf("%d products under faults vs %d without", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  faults:   %s\n  no-fault: %s", i, got[i], want[i])
		}
	}

	// Every URL failed exactly twice then succeeded, so with 3 attempts:
	// every operation retried, every operation recovered, none gave up.
	n := len(ds.IncomingOffers)
	wantCounts := FetchCounters{Attempted: n, Attempts: 3 * n, Retried: n, Recovered: n}
	if res.Fetch.Counters != wantCounts {
		t.Errorf("FetchReport counters = %+v, want %+v", res.Fetch.Counters, wantCounts)
	}
	if res.Fetch.Degraded() {
		t.Errorf("retries recovered everything, yet FeedOnly = %v", res.Fetch.FeedOnly)
	}
}

// TestFetchPolicyStreamBatchEquivalence re-runs the stream≡batch
// equivalence matrix with the fault-injecting fetcher installed: for every
// Workers value the streamed merged view must stay byte-identical to the
// no-fault one-shot output, and the final result's aggregated FetchReport
// must match the schedule exactly.
func TestFetchPolicyStreamBatchEquivalence(t *testing.T) {
	ds := marketplace(t)
	model, err := Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	clean := NewSystem(ds.Catalog, model)
	noFault, err := clean.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	want := productFingerprints(noFault.Products)
	n := len(ds.IncomingOffers)
	wantCounts := FetchCounters{Attempted: n, Attempts: 3 * n, Retried: n, Recovered: n}

	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: workers, Fetch: recoveryPolicy()}
			sys := NewSystem(ds.Catalog, model, WithConfig(cfg))
			// A fresh Faulty per cell: FailFirst counts attempts per
			// URL over the fetcher's lifetime.
			faulty := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(2), NewFakeFetchClock())
			perWave, final := runStream(t, sys, contiguousWaves(ds.IncomingOffers, 4), faulty, StreamOptions{})

			for _, r := range perWave {
				if r.Err != nil {
					t.Fatalf("wave %d failed: %v", r.Wave, r.Err)
				}
				if r.Fetch.Degraded() {
					t.Errorf("wave %d degraded: %v", r.Wave, r.Fetch.FeedOnly)
				}
			}
			got := productFingerprints(final.Products)
			if len(got) != len(want) {
				t.Fatalf("%d merged products vs %d one-shot", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("product %d differs:\n  streamed: %s\n  one-shot: %s", i, got[i], want[i])
				}
			}
			if final.Fetch.Counters != wantCounts {
				t.Errorf("final FetchReport = %+v, want %+v", final.Fetch.Counters, wantCounts)
			}
		})
	}
}

// TestFetchPolicyBatchesRecover runs the same recovery schedule through
// the batch entry point: the fetcher is wrapped once for the whole
// sequence, per-batch reports carry each batch's share, and the total
// matches the schedule.
func TestFetchPolicyBatchesRecover(t *testing.T) {
	ds, sys := learned(t, Config{Fetch: recoveryPolicy()})
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(2), NewFakeFetchClock())
	batches := contiguousWaves(ds.IncomingOffers, 3)

	res, err := sys.SynthesizeBatchesContext(context.Background(), batches, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d batches failed", res.Failed)
	}
	for i, b := range res.Batches {
		if b.Fetch.Attempted != len(batches[i]) || b.Fetch.Recovered != len(batches[i]) {
			t.Errorf("batch %d report = %+v, want %d attempted and recovered",
				i, b.Fetch.Counters, len(batches[i]))
		}
	}
	n := len(ds.IncomingOffers)
	wantCounts := FetchCounters{Attempted: n, Attempts: 3 * n, Retried: n, Recovered: n}
	if res.Total.Fetch.Counters != wantCounts {
		t.Errorf("total FetchReport = %+v, want %+v", res.Total.Fetch.Counters, wantCounts)
	}
}

// TestFetchReportFeedOnly pins lenient mode's degradation accounting: an
// offer whose page never fetches proceeds feed-only and is named in the
// result's FetchReport, while strict mode fails the run even after
// retries.
func TestFetchReportFeedOnly(t *testing.T) {
	ds, sys := learned(t, Config{Fetch: recoveryPolicy()})
	incoming := append([]Offer{badOffer(ds)}, ds.IncomingOffers[1:]...)
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(0), nil) // no injected faults; the bad URL alone fails

	res, err := sys.SynthesizeContext(context.Background(), incoming, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Fetch.FeedOnly; len(got) != 1 || got[0] != "bad-offer" {
		t.Fatalf("FeedOnly = %v, want [bad-offer]", got)
	}
	if !res.Fetch.Degraded() {
		t.Error("Degraded() = false with a feed-only offer")
	}
	n := len(incoming)
	// The bad offer exhausts all 3 attempts; everything else succeeds
	// first try.
	wantCounts := FetchCounters{Attempted: n, Attempts: n + 2, Retried: 1, GaveUp: 1}
	if res.Fetch.Counters != wantCounts {
		t.Errorf("counters = %+v, want %+v", res.Fetch.Counters, wantCounts)
	}

	strict := NewSystem(ds.Catalog, sys.Model(), WithConfig(Config{Fetch: recoveryPolicy(), StrictPages: true}))
	if _, err := strict.SynthesizeContext(context.Background(), incoming, faulty); err == nil {
		t.Fatal("strict run tolerated an unfetchable page")
	}
}

// TestFetchPolicyStrictSavedByRetries pins the strict+retry interplay: a
// transient double-failure that would abort a strict run without retries
// is recovered by the policy and the run succeeds.
func TestFetchPolicyStrictSavedByRetries(t *testing.T) {
	ds, sys := learned(t, Config{Fetch: recoveryPolicy(), StrictPages: true})
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(2), NewFakeFetchClock())
	res, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, faulty)
	if err != nil {
		t.Fatalf("strict run failed despite recovering retries: %v", err)
	}
	if res.Fetch.Recovered != len(ds.IncomingOffers) {
		t.Errorf("Recovered = %d, want %d", res.Fetch.Recovered, len(ds.IncomingOffers))
	}

	// Three failures exceed the retry budget: now strict aborts, and the
	// error carries the injected cause.
	exhausted := NewFaultyFetcher(MapFetcher(ds.Pages), FailFirstFaults(3), NewFakeFetchClock())
	if _, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, exhausted); !errors.Is(err, ErrFetchInjected) {
		t.Fatalf("err = %v, want wrapped ErrFetchInjected", err)
	}
}

// TestLearnHonorsStrictPages pins the fixed StrictPages asymmetry at the
// public boundary: offline learning now honors the knob exactly as the
// runtime does, and lenient learning accounts its crawl gaps on the Model.
func TestLearnHonorsStrictPages(t *testing.T) {
	ds := marketplace(t)
	badHist := ds.HistoricalOffers[0].Clone()
	badHist.ID = "bad-hist"
	badHist.URL = "missing://nowhere"
	historical := append([]Offer{badHist}, ds.HistoricalOffers[1:]...)

	model, err := Learn(context.Background(), ds.Catalog, historical, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatalf("lenient Learn failed: %v", err)
	}
	if got := model.FetchReport().FeedOnly; len(got) != 1 || got[0] != "bad-hist" {
		t.Errorf("Model.FetchReport().FeedOnly = %v, want [bad-hist]", got)
	}

	if _, err := Learn(context.Background(), ds.Catalog, historical, MapFetcher(ds.Pages), WithStrictPages(true)); err == nil {
		t.Fatal("strict Learn tolerated a missing historical page")
	}
}

// alwaysFail is a schedule that fails every attempt for every URL.
var alwaysFail = FaultScheduleFunc(func(url string, attempt int) FaultOutcome {
	return FaultOutcome{Err: fmt.Errorf("%w: %q attempt %d", ErrFetchInjected, url, attempt)}
})

// TestFetchCancelDuringBackoffNoLeak cancels a synthesis run while its
// fetches are parked in real-clock backoff sleeps: the run must return
// promptly with ctx.Err() and leak no goroutines — the resilience layer's
// counterpart of TestStreamCtxCancelNoLeak.
func TestFetchCancelDuringBackoffNoLeak(t *testing.T) {
	policy := FetchPolicy{
		MaxAttempts: 10,
		BackoffBase: time.Hour, // only cancellation can cut this short
		BackoffMax:  time.Hour,
	}
	ds, sys := learned(t, Config{})
	sysWithPolicy := NewSystem(ds.Catalog, sys.Model(), WithConfig(Config{Fetch: policy}))

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), alwaysFail, nil)
	done := make(chan error, 1)
	go func() {
		_, err := sysWithPolicy.SynthesizeContext(ctx, ds.IncomingOffers, faulty)
		done <- err
	}()
	// Give the extraction stage time to fail first attempts and park in
	// backoff, then cancel.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synthesis did not return after cancel during backoff")
	}
	waitGoroutines(t, baseline)
}

// TestFetchCancelWithBreakerOpenNoLeak cancels a stream whose fetches are
// split between an open circuit breaker (rejecting instantly) and a
// schedule-injected latency stall: cancellation must unwind both paths
// without leaking pipeline goroutines, and the stream must close without
// a healthy final result.
func TestFetchCancelWithBreakerOpenNoLeak(t *testing.T) {
	ds, sys := learned(t, Config{})
	// Every URL of the first merchant's host fails hard (tripping its
	// breaker after 1 failure); every other URL stalls for an hour of
	// real-clock latency, so the wave parks mid-fetch.
	downHost := hostOf(ds.IncomingOffers, t)
	sched := FaultScheduleFunc(func(url string, attempt int) FaultOutcome {
		if hostOfURL(url) == downHost {
			return FaultOutcome{Err: fmt.Errorf("%w: %q down", ErrFetchInjected, downHost)}
		}
		return FaultOutcome{Latency: time.Hour}
	})
	policy := FetchPolicy{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}
	sysWithPolicy := NewSystem(ds.Catalog, sys.Model(), WithConfig(Config{Fetch: policy}))

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	faulty := NewFaultyFetcher(MapFetcher(ds.Pages), sched, nil)
	in := make(chan []Offer, 1)
	out, err := sysWithPolicy.SynthesizeStream(ctx, in, faulty, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in <- ds.IncomingOffers
	time.Sleep(50 * time.Millisecond) // breaker trips; healthy-host fetches stall in latency
	cancel()
	sawFinal := false
	for r := range out {
		if r.Final {
			sawFinal = true
		}
	}
	if sawFinal {
		t.Error("cancelled stream delivered a final result")
	}
	close(in)
	waitGoroutines(t, baseline)
}

// hostOf returns the host of the first offer's URL.
func hostOf(offers []Offer, t *testing.T) string {
	t.Helper()
	if len(offers) == 0 {
		t.Fatal("no offers")
	}
	return hostOfURL(offers[0].URL)
}

// hostOfURL extracts "merchant.example.com" from the synthetic
// marketplace's offer URLs (http://<merchant>.example.com/item/<id>).
func hostOfURL(url string) string {
	const scheme = "http://"
	if len(url) < len(scheme) {
		return url
	}
	rest := url[len(scheme):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return rest[:i]
		}
	}
	return rest
}

// TestFetchReportWaveMergeMath is the stream accounting property test:
// the final result's FetchReport must be exactly the sum of the per-wave
// reports — every counter adds up and FeedOnly is the per-wave union —
// across worker counts, under both a recovering schedule (every URL fails
// twice, retries save everything) and an exhausting one (every URL fails
// three times, every operation gives up and degrades to feed-only). If a
// pipelined interleaving ever double-counted or dropped a wave's share,
// the sums would disagree.
func TestFetchReportWaveMergeMath(t *testing.T) {
	ds := marketplace(t)
	model, err := Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name   string
		faults FaultSchedule
	}{
		{"recovers", FailFirstFaults(2)}, // 2 failures < 3 attempts: all recover
		{"exhausts", FailFirstFaults(3)}, // 3 failures = 3 attempts: all give up
	}
	for _, sched := range schedules {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", sched.name, workers)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Workers: workers, Fetch: recoveryPolicy()}
				sys := NewSystem(ds.Catalog, model, WithConfig(cfg))
				faulty := NewFaultyFetcher(MapFetcher(ds.Pages), sched.faults, NewFakeFetchClock())
				perWave, final := runStream(t, sys, contiguousWaves(ds.IncomingOffers, 4), faulty, StreamOptions{})

				var sum FetchCounters
				var feedOnly []string
				for _, r := range perWave {
					if r.Err != nil {
						t.Fatalf("wave %d failed: %v", r.Wave, r.Err)
					}
					sum.Attempted += r.Fetch.Attempted
					sum.Attempts += r.Fetch.Attempts
					sum.Retried += r.Fetch.Retried
					sum.Recovered += r.Fetch.Recovered
					sum.GaveUp += r.Fetch.GaveUp
					sum.BreakerRejected += r.Fetch.BreakerRejected
					feedOnly = append(feedOnly, r.Fetch.FeedOnly...)
				}
				if final.Fetch.Counters != sum {
					t.Errorf("final counters = %+v, per-wave sum = %+v", final.Fetch.Counters, sum)
				}
				gotFeed := append([]string(nil), final.Fetch.FeedOnly...)
				sort.Strings(gotFeed)
				sort.Strings(feedOnly)
				if len(gotFeed) != len(feedOnly) {
					t.Fatalf("final FeedOnly has %d offers, per-wave union %d", len(gotFeed), len(feedOnly))
				}
				for i := range feedOnly {
					if gotFeed[i] != feedOnly[i] {
						t.Fatalf("FeedOnly diverges at %d: final %q vs union %q", i, gotFeed[i], feedOnly[i])
					}
				}

				// The schedule fixes the totals too: every operation
				// either recovered (2 failures) or gave up (3).
				n := len(ds.IncomingOffers)
				want := FetchCounters{Attempted: n, Attempts: 3 * n, Retried: n}
				if sched.name == "recovers" {
					want.Recovered = n
				} else {
					want.GaveUp = n
				}
				if sum != want {
					t.Errorf("schedule accounting: sum = %+v, want %+v", sum, want)
				}
				if wantFeed := sched.name == "exhausts"; (len(feedOnly) == n) != wantFeed {
					t.Errorf("FeedOnly carries %d offers, degraded run = %v", len(feedOnly), wantFeed)
				}
			})
		}
	}
}
