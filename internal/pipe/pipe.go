// Package pipe provides the pull-based iterator stages the runtime
// pipeline is composed from, and the one worker pool its data-parallel
// work runs on. A Source is a lazy, context-aware iterator; a Stage wraps
// an upstream Source into a downstream one. Stages do no work until
// pulled, so a composed pipeline materializes nothing beyond each stage's
// own bounded scratch.
//
// Three execution shapes cover the pipeline's needs:
//
//   - For and MapSlice: the worker pool. For runs a function over
//     [0, n) on a fixed set of goroutines that claim contiguous runs;
//     MapSlice is the ordered, context-aware map over a slice built on
//     it, so output is byte-identical for every worker count. Every
//     data-parallel caller already holds its input as a slice, so the
//     pool takes slices, not sources. ParMap adapts MapSlice to a Stage.
//   - Map: serial per-item transformation, zero goroutines, laziness only.
//   - Buffer: a stage boundary — the upstream runs in its own goroutine
//     feeding a bounded channel, so downstream work overlaps upstream
//     work (wave pipelining). Depth 0 is an unbuffered handoff: the
//     upstream still works one item ahead of the consumer.
//
// Cancellation: every blocking point selects on the context, and every
// goroutine a stage spawned exits once the context is cancelled or the
// stage is drained. The context passed to the first Next call is the one
// a stage's goroutines watch; callers must use a single context for one
// pipeline's lifetime (the pipeline packages do). A pipeline abandoned
// mid-stream without cancellation may strand stage goroutines — always
// either drain a pipeline or cancel its context. For joins every
// goroutine it starts before it returns, and so does MapSlice, except
// that a cancelled context returns at once and leaves fns that ignore it
// to finish in the background.
package pipe

import (
	"context"
	"sync"
	"sync/atomic"
)

// Source is a pull-based iterator. Next returns the next element with
// ok=true; exhaustion is (zero, false, nil) and failure (zero, false,
// err). After the first ok=false return the source is spent: further
// calls keep returning ok=false. Sources are for single-consumer use;
// Next must not be called concurrently.
type Source[T any] interface {
	Next(ctx context.Context) (T, bool, error)
}

// Stage is one composable pipeline stage: it wraps an upstream source
// into a downstream one. Stages compose by application:
//
//	out := fuse(cluster(prepare(src)))
type Stage[In, Out any] func(Source[In]) Source[Out]

// sliceSource iterates a slice.
type sliceSource[T any] struct {
	items []T
	next  int
}

// FromSlice returns a Source over the slice, in order. The slice is
// retained, not copied.
func FromSlice[T any](items []T) Source[T] {
	return &sliceSource[T]{items: items}
}

func (s *sliceSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	if s.next >= len(s.items) {
		return zero, false, nil
	}
	item := s.items[s.next]
	s.next++
	return item, true, nil
}

// chanSource iterates a channel until it closes.
type chanSource[T any] struct {
	ch <-chan T
}

// FromChan returns a Source that receives from ch until ch closes (ok
// becomes false) or the context is cancelled (err is ctx.Err()).
func FromChan[T any](ch <-chan T) Source[T] {
	return &chanSource[T]{ch: ch}
}

func (s *chanSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	select {
	case <-ctx.Done():
		return zero, false, ctx.Err()
	case item, ok := <-s.ch:
		if !ok {
			return zero, false, nil
		}
		return item, true, nil
	}
}

// mapSource applies fn on pull.
type mapSource[In, Out any] struct {
	src  Source[In]
	fn   func(context.Context, In) (Out, error)
	done bool
}

// Map returns the serial transformation stage: each pull takes one item
// from the upstream and applies fn. No goroutines, no buffering — pure
// laziness. An fn error ends the stage.
func Map[In, Out any](fn func(context.Context, In) (Out, error)) Stage[In, Out] {
	return func(src Source[In]) Source[Out] {
		return &mapSource[In, Out]{src: src, fn: fn}
	}
}

func (s *mapSource[In, Out]) Next(ctx context.Context) (Out, bool, error) {
	var zero Out
	if s.done {
		return zero, false, nil
	}
	in, ok, err := s.src.Next(ctx)
	if err != nil || !ok {
		s.done = true
		return zero, false, err
	}
	out, err := s.fn(ctx, in)
	if err != nil {
		s.done = true
		return zero, false, err
	}
	return out, true, nil
}

// For runs fn over [0, n) on up to workers goroutines, the caller's
// among them, and returns once every index is done. Each goroutine claims
// contiguous runs [lo, hi) in ascending order until none remain. The run
// length follows from n and workers: small enough that a short input
// still spreads over every worker, at most 256 so a long one is not cut
// into more hand-offs than it needs. workers < 1 is treated as 1.
func For(n, workers int, fn func(lo, hi int)) {
	workers = max(workers, 1)
	run := min(max(n/(workers*16), 1), 256)
	var next atomic.Int64
	claim := func() {
		for {
			lo := int(next.Add(int64(run))) - run
			if lo >= n {
				return
			}
			fn(lo, min(lo+run, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, (n+run-1)/run); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// MapSlice applies fn to every item on For's workers and returns the
// results in input order, so output is identical for every worker count.
//
// When fn fails, the error returned is the one at the lowest failing
// index, and the results returned are those of the indexes below it.
// Every index below the failing one still runs, so which error wins does
// not depend on scheduling; indexes above it are skipped. The context fn
// receives is cancelled once every index below the failing one has
// finished: siblings above it that are still running (a fetch mid-retry,
// a blocking call) abort promptly, and no item below it ever sees a
// cancellation the error caused. MapSlice returns once every goroutine it
// started has exited.
//
// A cancelled ctx returns ctx.Err() and no results at once: no further
// item starts, and an fn already running that ignores its context (a
// plain fetch cannot be interrupted) finishes in the background.
func MapSlice[In, Out any](ctx context.Context, workers int, items []In, fn func(context.Context, In) (Out, error)) ([]Out, error) {
	if len(items) == 0 {
		return nil, ctx.Err()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := sctx.Done()
	out := make([]Out, len(items))
	var stop atomic.Int64 // the lowest failing index so far; len(items) while none has failed
	stop.Store(int64(len(items)))
	var (
		mu       sync.Mutex
		failErr  error
		frontier int             // every index below it has finished
		ended    = map[int]int{} // finished runs past the frontier, lo → end
	)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		For(len(items), workers, func(lo, hi int) {
			var err error
			end := lo
		loop:
			for ; end < hi && int64(end) < stop.Load(); end++ {
				select {
				case <-done:
					break loop
				default:
				}
				if out[end], err = fn(sctx, items[end]); err != nil {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && int64(end) < stop.Load() {
				stop.Store(int64(end))
				failErr = err
			}
			if end > lo {
				ended[lo] = end
			}
			for e, ok := ended[frontier]; ok; e, ok = ended[frontier] {
				delete(ended, frontier)
				frontier = e
			}
			if int64(frontier) >= stop.Load() {
				cancel()
			}
		})
	}()
	select {
	case <-finished:
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failErr != nil {
		return out[:stop.Load()], failErr
	}
	return out, nil
}

// ParMap returns MapSlice as a stage, for callers written against
// sources. The first pull drains the upstream and maps it; later pulls
// replay the results in input order, then the first error (fn's, else
// the upstream's) at its position. workers < 1 is treated as 1.
func ParMap[In, Out any](workers int, fn func(context.Context, In) (Out, error)) Stage[In, Out] {
	return func(src Source[In]) Source[Out] {
		return &replay[Out]{fill: func(ctx context.Context) ([]Out, error) {
			var items []In
			for {
				in, ok, err := src.Next(ctx)
				if !ok {
					out, merr := MapSlice(ctx, workers, items, fn)
					if merr != nil {
						return out, merr
					}
					return out, err
				}
				items = append(items, in)
			}
		}}
	}
}

// replay is ParMap's source: fill runs on the first pull, then its items
// are yielded in order and its error last.
type replay[T any] struct {
	fill  func(context.Context) ([]T, error)
	items []T
	err   error
}

func (r *replay[T]) Next(ctx context.Context) (T, bool, error) {
	if r.fill != nil {
		r.items, r.err = r.fill(ctx)
		r.fill = nil
	}
	var zero T
	if len(r.items) == 0 {
		err := r.err
		r.err = nil
		return zero, false, err
	}
	item := r.items[0]
	r.items = r.items[1:]
	return item, true, nil
}

// bufItem carries one element or the upstream's terminal error across the
// stage boundary.
type bufItem[T any] struct {
	val T
	err error
}

// bufSource is the stage boundary described on Buffer.
type bufSource[T any] struct {
	src   Source[T]
	depth int

	start sync.Once
	ch    chan bufItem[T]
	done  bool
}

// Buffer returns a stage boundary: the upstream runs in its own goroutine
// feeding a channel of the given capacity, so pulls from downstream
// overlap the upstream's work. Depth 0 is an unbuffered handoff — the
// upstream still computes one item ahead while the consumer processes the
// previous one; larger depths let it run further ahead. The goroutine
// starts on the first pull and exits when the upstream is exhausted (its
// terminal error, if any, is delivered in position) or the context is
// cancelled.
func Buffer[T any](depth int) Stage[T, T] {
	if depth < 0 {
		depth = 0
	}
	return func(src Source[T]) Source[T] {
		return &bufSource[T]{src: src, depth: depth}
	}
}

func (s *bufSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	if s.done {
		return zero, false, nil
	}
	s.start.Do(func() {
		s.ch = make(chan bufItem[T], s.depth)
		go func() {
			defer close(s.ch)
			for {
				item, ok, err := s.src.Next(ctx)
				if err != nil {
					select {
					case s.ch <- bufItem[T]{err: err}:
					case <-ctx.Done():
					}
					return
				}
				if !ok {
					return
				}
				select {
				case s.ch <- bufItem[T]{val: item}:
				case <-ctx.Done():
					return
				}
			}
		}()
	})
	select {
	case <-ctx.Done():
		s.done = true
		return zero, false, ctx.Err()
	case item, ok := <-s.ch:
		if !ok {
			s.done = true
			return zero, false, nil
		}
		if item.err != nil {
			s.done = true
			return zero, false, item.err
		}
		return item.val, true, nil
	}
}

// Collect drains the source into a slice. On error the partial slice is
// discarded and the error returned.
func Collect[T any](ctx context.Context, src Source[T]) ([]T, error) {
	var out []T
	for {
		item, ok, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, item)
	}
}
