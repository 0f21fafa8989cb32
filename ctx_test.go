package prodsynth

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// The tests here pin the context contract of the v2 entry points:
// cancelling mid-Learn and mid-Synthesize returns ctx.Err() promptly and
// leaks no worker-pool goroutines — the one-shot mirror of
// TestStreamCtxCancelNoLeak. The gateFetcher (stream_test.go) parks every
// page fetch until released, which is how the tests guarantee the
// cancellation lands while the pipeline's pools are mid-stage.

// TestLearnCtxCancelNoLeak cancels Learn while the historical offers'
// page fetches are in flight.
func TestLearnCtxCancelNoLeak(t *testing.T) {
	ds := marketplace(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := newGateFetcher(MapFetcher(ds.Pages))
	errc := make(chan error, 1)
	go func() {
		_, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, gate)
		errc <- err
	}()

	<-gate.inflight // extraction stage is mid-fetch
	cancel()
	close(gate.release) // let the parked workers drain
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

// TestLearnCtxAlreadyCancelled pins the fast path: a dead context fails
// before any work starts.
func TestLearnCtxAlreadyCancelled(t *testing.T) {
	ds := marketplace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A fetcher that would fail the test if consulted.
	if _, err := Learn(ctx, ds.Catalog, ds.HistoricalOffers, fetchFail{t}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type fetchFail struct{ t *testing.T }

func (f fetchFail) Fetch(string) (string, error) {
	f.t.Error("Fetch called despite pre-cancelled context")
	return "", nil
}

// TestSynthesizeCtxCancelNoLeak cancels SynthesizeContext while the
// incoming offers' page fetches are in flight.
func TestSynthesizeCtxCancelNoLeak(t *testing.T) {
	ds, sys := learned(t, Config{})
	model := sys.Model()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := newGateFetcher(MapFetcher(ds.Pages))
	sys2 := NewSystem(ds.Catalog, model)
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sys2.SynthesizeContext(ctx, ds.IncomingOffers, gate)
		done <- outcome{res, err}
	}()

	<-gate.inflight
	cancel()
	close(gate.release)
	got := <-done
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("SynthesizeContext returned %v, want context.Canceled", got.err)
	}
	if got.res != nil {
		t.Error("cancelled run returned a non-nil Result")
	}
	waitGoroutines(t, baseline)
}
