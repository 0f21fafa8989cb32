package pipe

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestFromSliceCollect(t *testing.T) {
	got, err := Collect(context.Background(), FromSlice(ints(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapLazyAndOrdered(t *testing.T) {
	var calls int
	stage := Map(func(_ context.Context, i int) (int, error) {
		calls++
		return i * 10, nil
	})
	src := stage(FromSlice(ints(4)))
	if calls != 0 {
		t.Fatalf("Map did work before the first pull: %d calls", calls)
	}
	v, ok, err := src.Next(context.Background())
	if err != nil || !ok || v != 0 {
		t.Fatalf("first pull: %v %v %v", v, ok, err)
	}
	if calls != 1 {
		t.Fatalf("one pull should mean one call, got %d", calls)
	}
	rest, err := Collect(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30}
	for i, v := range rest {
		if v != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
}

func TestMapErrorEndsStage(t *testing.T) {
	boom := errors.New("boom")
	stage := Map(func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	src := stage(FromSlice(ints(5)))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, ok, err := src.Next(ctx); !ok || err != nil {
			t.Fatalf("pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := src.Next(ctx); ok || !errors.Is(err, boom) {
		t.Fatalf("want boom, got ok=%v err=%v", ok, err)
	}
	// Spent after the terminal error.
	if _, ok, err := src.Next(ctx); ok || err != nil {
		t.Fatalf("spent source returned ok=%v err=%v", ok, err)
	}
}

// TestParMapDeterministicOrder is the determinism contract: same output
// sequence for every worker count, even when later items finish first.
func TestParMapDeterministicOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		stage := ParMap(workers, func(_ context.Context, i int) (int, error) {
			// Earlier items sleep longer, so with >1 worker completions
			// arrive out of order.
			time.Sleep(time.Duration(50-i%50) * time.Microsecond)
			return i * 2, nil
		})
		got, err := Collect(context.Background(), stage(FromSlice(ints(200))))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 200 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*2)
			}
		}
	}
}

// TestParMapErrorPosition: the error surfaced is the erroring item
// earliest in input order that the consumer reaches, and the stage tears
// itself down (no goroutine leak) without delivering later items.
func TestParMapErrorPosition(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("boom")
	stage := ParMap(4, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return i, nil
	})
	src := stage(FromSlice(ints(100)))
	ctx := context.Background()
	var got []int
	for {
		v, ok, err := src.Next(ctx)
		if err != nil {
			if !errors.Is(err, boom) || err.Error() != "item 3: boom" {
				t.Fatalf("err = %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("stage ended without the error")
		}
		got = append(got, v)
	}
	if len(got) != 3 {
		t.Fatalf("items before the error: %v", got)
	}
	waitGoroutines(t, baseline)
}

func TestParMapCancelNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	stage := ParMap(4, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		<-release
		return i, nil
	})
	src := stage(FromSlice(ints(64)))
	go func() {
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	for {
		_, ok, err := src.Next(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("ended cleanly despite cancellation")
		}
	}
	waitGoroutines(t, baseline)
}

// TestPoolVisitsEachIndexOnce: For covers [0, n) exactly once, in runs
// that tile it, for short and long inputs and every worker count.
func TestPoolVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, workers - 1, workers, 10000} {
			visits := make([]atomic.Int32, n)
			For(n, workers, func(lo, hi int) {
				if lo < 0 || lo >= hi || hi > n {
					t.Errorf("workers=%d n=%d: bad run [%d, %d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
			got, err := MapSlice(context.Background(), workers, ints(n), func(_ context.Context, i int) (int, error) {
				return i * 3, nil
			})
			if err != nil || len(got) != n {
				t.Fatalf("workers=%d n=%d: MapSlice len=%d err=%v", workers, n, len(got), err)
			}
			for i, v := range got {
				if v != i*3 {
					t.Fatalf("workers=%d n=%d: got[%d]=%d", workers, n, i, v)
				}
			}
		}
	}
}

// TestPoolLowestError: with several failing items finishing in random
// order, the error is always the lowest failing index's, and the results
// returned are exactly those below it.
func TestPoolLowestError(t *testing.T) {
	const n = 32 // short runs, so neighbouring items race on different workers
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		failing := map[int]bool{}
		for len(failing) < 3 {
			failing[rng.Intn(n)] = true
		}
		lowest := n
		for i := range failing {
			lowest = min(lowest, i)
		}
		sleeps := make([]time.Duration, n)
		for i := range sleeps {
			sleeps[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
		}
		got, err := MapSlice(context.Background(), 4, ints(n), func(_ context.Context, i int) (int, error) {
			time.Sleep(sleeps[i])
			if failing[i] {
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if want := fmt.Sprintf("item %d", lowest); err == nil || err.Error() != want {
			t.Fatalf("trial %d: err = %v, want %s", trial, err, want)
		}
		if len(got) != lowest {
			t.Fatalf("trial %d: %d results before the error at %d", trial, len(got), lowest)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("trial %d: got[%d]=%d", trial, i, v)
			}
		}
	}
}

// TestPoolCancelsAbove: after the error at index 1, items above it that
// block until their context is cancelled return, so the call does.
func TestPoolCancelsAbove(t *testing.T) {
	boom := errors.New("boom")
	aboveRunning := make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		_, err := MapSlice(context.Background(), 4, ints(8), func(ctx context.Context, i int) (int, error) {
			switch {
			case i == 1:
				<-aboveRunning
				return 0, boom
			case i == 2:
				close(aboveRunning)
				<-ctx.Done()
			case i > 2:
				<-ctx.Done()
			}
			return i, nil
		})
		returned <- err
	}()
	select {
	case err := <-returned:
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("items above the failing one were never cancelled")
	}
}

// TestPoolSparesBelow: an item below the failing one, still running when
// the error arrives, keeps a live context until it returns.
func TestPoolSparesBelow(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	var belowErr error // written by item 0, read after MapSlice joined it
	_, err := MapSlice(context.Background(), 4, ints(8), func(ctx context.Context, i int) (int, error) {
		switch {
		case i == 0:
			<-failed
			time.Sleep(20 * time.Millisecond) // give a wrong loop time to cancel
			belowErr = ctx.Err()
		case i == 1:
			close(failed)
			return 0, boom
		default:
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if belowErr != nil {
		t.Fatalf("item 0 saw ctx.Err() = %v, want nil", belowErr)
	}
}

// TestPoolOuterCancelNoLeak: cancelling the caller's context returns
// context.Canceled at once, even while items that ignore their context
// are still running; no further item starts, and no goroutine is left
// once those items return.
func TestPoolOuterCancelNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started, ran atomic.Int64
	go func() {
		for started.Load() < 4 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	type result struct {
		got []int
		err error
	}
	returned := make(chan result, 1)
	go func() {
		got, err := MapSlice(ctx, 4, ints(1000), func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if started.Add(1) <= 4 {
				<-release
			}
			return i, nil
		})
		returned <- result{got, err}
	}()
	select {
	case r := <-returned:
		if !errors.Is(r.err, context.Canceled) || r.got != nil {
			t.Errorf("got %d results, err = %v; want none and context.Canceled", len(r.got), r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MapSlice waited for items that ignore their context")
	}
	close(release)
	waitGoroutines(t, baseline)
	if n := ran.Load(); n > 4 {
		t.Fatalf("%d items ran after cancellation", n-4)
	}
}

// TestBufferOverlap proves the stage boundary actually decouples producer
// and consumer: with depth 1 the producer gets two items ahead (one in
// the buffer, one in hand) while the consumer holds the first.
func TestBufferOverlap(t *testing.T) {
	produced := make(chan int, 16)
	stage := Map(func(_ context.Context, i int) (int, error) {
		produced <- i
		return i, nil
	})
	src := Buffer[int](1)(stage(FromSlice(ints(8))))
	ctx := context.Background()
	v, ok, err := src.Next(ctx)
	if err != nil || !ok || v != 0 {
		t.Fatalf("first pull: %v %v %v", v, ok, err)
	}
	// Without pulling again, the producer should run ahead: item 1 into
	// the buffer slot, item 2 blocked in hand. Item 3 must NOT be
	// produced (bounded readahead).
	deadline := time.After(2 * time.Second)
	seen := map[int]bool{0: true}
	for len(seen) < 3 {
		select {
		case i := <-produced:
			seen[i] = true
		case <-deadline:
			t.Fatalf("producer did not run ahead; produced %v", seen)
		}
	}
	select {
	case i := <-produced:
		t.Fatalf("producer ran unboundedly ahead: produced %d", i)
	case <-time.After(50 * time.Millisecond):
	}
	rest, err := Collect(ctx, src)
	if err != nil || len(rest) != 7 {
		t.Fatalf("rest=%v err=%v", rest, err)
	}
}

func TestBufferDeliversTerminalError(t *testing.T) {
	boom := errors.New("boom")
	stage := Map(func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	src := Buffer[int](4)(stage(FromSlice(ints(8))))
	got, err := Collect(context.Background(), src)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v (got %v)", err, got)
	}
}

func TestBufferCancelNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	src := Buffer[int](0)(FromSlice(ints(1000)))
	if _, ok, err := src.Next(ctx); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, ok, err := src.Next(ctx); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: ok=%v err=%v", ok, err)
	}
	waitGoroutines(t, baseline)
}

func TestFromChan(t *testing.T) {
	ch := make(chan int, 3)
	ch <- 7
	ch <- 8
	close(ch)
	got, err := Collect(context.Background(), FromChan(ch))
	if err != nil || len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v err %v", got, err)
	}

	blocked := make(chan int)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := FromChan(blocked).Next(ctx); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled receive: ok=%v err=%v", ok, err)
	}
}

// waitGoroutines waits for the goroutine count to drain back to (at most)
// the baseline, tolerating runtime background noise.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
