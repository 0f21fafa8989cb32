package pipe

import (
	"context"
	"errors"
	"fmt"
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
