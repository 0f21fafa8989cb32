package fetch

import (
	"fmt"
	"strings"
)

// Counters are the resilience layer's fetch-operation counts. One
// "operation" is one logical page fetch (one offer URL); an operation
// spans up to Policy.MaxAttempts attempts. Counters are cumulative over a
// Resilient's lifetime; per-run and per-wave figures are deltas between
// snapshots (Sub).
type Counters struct {
	// Attempted counts fetch operations started.
	Attempted int
	// Attempts counts individual attempts that reached the underlying
	// fetcher (Attempted == Attempts when nothing retried; breaker
	// rejections reach no fetcher and are not attempts).
	Attempts int
	// Retried counts operations that needed more than one attempt.
	Retried int
	// Recovered counts operations that failed at least once and then
	// succeeded — the fetches retries saved.
	Recovered int
	// GaveUp counts operations whose final outcome was an error:
	// retries exhausted, a permanent error, a breaker rejection, or
	// cancellation.
	GaveUp int
	// BreakerRejected counts operations rejected by an open circuit
	// breaker without reaching the underlying fetcher.
	BreakerRejected int
}

// Sub returns the counter delta c - prev: the activity between two
// snapshots of the same Resilient.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Attempted:       c.Attempted - prev.Attempted,
		Attempts:        c.Attempts - prev.Attempts,
		Retried:         c.Retried - prev.Retried,
		Recovered:       c.Recovered - prev.Recovered,
		GaveUp:          c.GaveUp - prev.GaveUp,
		BreakerRejected: c.BreakerRejected - prev.BreakerRejected,
	}
}

// Add folds d into c.
func (c *Counters) Add(d Counters) {
	c.Attempted += d.Attempted
	c.Attempts += d.Attempts
	c.Retried += d.Retried
	c.Recovered += d.Recovered
	c.GaveUp += d.GaveUp
	c.BreakerRejected += d.BreakerRejected
}

// CounterSource is implemented by fetchers that account their activity
// (Resilient does). The pipeline detects it by interface upgrade and
// reports per-run counter deltas instead of its own coarser tally.
type CounterSource interface {
	FetchCounters() Counters
}

// Report is the per-run fetch accounting attached to every synthesis
// result: what lenient mode would otherwise degrade silently. The
// embedded Counters cover the run's fetch operations; FeedOnly names the
// offers that proceeded on feed spec alone because their page could not
// be fetched — the run's graceful-degradation surface.
type Report struct {
	Counters
	// FeedOnly are the IDs of offers whose landing page could not be
	// fetched and that therefore went through reconciliation with their
	// feed spec only (lenient mode). Sorted; empty under StrictPages
	// (the run fails instead) and when every fetch succeeded.
	FeedOnly []string
}

// Degraded reports whether any offer in the run proceeded without its
// landing page.
func (r Report) Degraded() bool { return len(r.FeedOnly) > 0 }

// Add folds o into r (counter sums, FeedOnly concatenation in argument
// order) — the aggregation used by the stream's final result.
func (r *Report) Add(o Report) {
	r.Counters.Add(o.Counters)
	r.FeedOnly = append(r.FeedOnly, o.FeedOnly...)
}

// String renders the report compactly for logs and experiment tables.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fetched %d (%d attempts", r.Attempted, r.Attempts)
	if r.Retried > 0 {
		fmt.Fprintf(&b, ", %d retried, %d recovered", r.Retried, r.Recovered)
	}
	if r.GaveUp > 0 {
		fmt.Fprintf(&b, ", %d gave up", r.GaveUp)
	}
	if r.BreakerRejected > 0 {
		fmt.Fprintf(&b, ", %d breaker-rejected", r.BreakerRejected)
	}
	b.WriteString(")")
	if len(r.FeedOnly) > 0 {
		fmt.Fprintf(&b, "; %d offers feed-only", len(r.FeedOnly))
	}
	return b.String()
}
