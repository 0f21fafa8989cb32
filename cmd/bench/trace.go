package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark's own files wrap each public function they call. Spans of
// one replay share a run number; parent is the span that was open when
// this one started (-1 at the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The traced replay is
// single-threaded, so the open spans form a stack. A nil recorder records
// nothing: the same replay code runs untraced to price the tracing itself.
type recorder struct {
	t0    time.Time
	run   int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// in runs fn inside a span named name.
func (r *recorder) in(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name})
	r.open = append(r.open, id)
	r.spans[id].StartNs = time.Since(r.t0).Nanoseconds()
	fn()
	r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// nextRun starts a new replay: later spans carry the new run number.
func (r *recorder) nextRun() {
	if r != nil {
		r.run++
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Calls   int
	TotalNs int64 // sum of durations
	SelfNs  int64 // durations minus the part child spans cover
}

// selfTimes folds spans by name. A span's self time is its duration minus
// the part of that interval its direct children cover; children of one
// parent never overlap here (single-threaded), but the union is taken
// anyway so the function is right for any well-formed input.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.TotalNs += s.EndNs - s.StartNs
		lt.SelfNs += s.EndNs - s.StartNs - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
// kids arrive in start order because spans are appended as they open.
func covered(p span, kids []span) int64 {
	var total int64
	edge := p.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, p.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
