package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecNames pins BENCHMARK.json to the program: same workloads in the
// same order, and every name and unit inside the contract's alphabet.
func TestSpecNames(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside 0..0.25", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// smoke runs one workload at the smoke scale: every output check runs,
// the numbers are discarded.
func smoke(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	b := &bench{seed: 1, seconds: 0.5, smoke: true, traced: traced, log: io.Discard}
	res, err := b.execute(context.Background(), w)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s: check failed: %s", w.name, p)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// expectMetrics asserts res reports exactly the listed metrics, each with
// its unit.
func expectMetrics(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", res.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(want))
	}
}

// TestWorkloadsSmoke runs all five workloads and the traced pass on the
// smoke marketplace and checks every name in BENCHMARK.json comes out.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	old := buildDir
	buildDir = t.TempDir()
	defer func() { buildDir = old }()
	for _, w := range workloads {
		res := smoke(t, w, false)
		expectMetrics(t, res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			// The smoke marketplace has no product with ten offers, so
			// the heavy bucket is empty there and only there.
			if res.Metrics[m.Name].Value == 0 && m.Name != "attr_recall_heavy" {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
			}
		}
		if res.Digests["oneshot_products"] == "" {
			t.Errorf("%s: no one-shot digest", w.name)
		}
	}
	layer := smoke(t, workloads[0], true)
	expectMetrics(t, layer, spec.PerLayer)
	if layer.Digests["replay_products"] != layer.Digests["oneshot_products"] {
		t.Error("replay digest differs from SynthesizeContext's")
	}

	// The last line of the printed result is the driver's JSON object.
	var out bytes.Buffer
	printResult(&out, layer)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(spec.PerLayer) {
		t.Errorf("last line lacks a key or a metric: %s", lines[len(lines)-1])
	}
}

func TestQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	s := summarize("ms", []float64{10, 20, 30, 40})
	if s.N != 4 || s.Value != 25 || s.spread() != 1 {
		t.Errorf("summarize: %+v spread %g", s, s.spread())
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.99); p != 5 {
		t.Errorf("p99 of 1..5 = %g", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Errorf("p50 of 1..5 = %g", p)
	}
}

// fakeClock advances only when slept on or when a request "runs".
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestOpenLoopDueTimes: one worker, 10 ms schedule, the second request
// stalls for 25 ms. Later requests are sent late, their lag is the
// generator's, and their latency counts from when they were due.
func TestOpenLoopDueTimes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	service := []time.Duration{2, 25, 2, 2, 2}
	shots := openLoop(clk, 10*time.Millisecond, len(service), 1, func(i int) bool {
		clk.Sleep(service[i] * time.Millisecond)
		return i != 3
	})
	want := []struct{ due, sent, done time.Duration }{
		{0, 0, 2}, {10, 10, 35}, {20, 35, 37}, {30, 37, 39}, {40, 40, 42},
	}
	for i, w := range want {
		sh := shots[i]
		if sh.due != w.due*time.Millisecond || sh.sent != w.sent*time.Millisecond || sh.done != w.done*time.Millisecond {
			t.Errorf("request %d: due %v sent %v done %v, want %v %v %v (ms)", i, sh.due, sh.sent, sh.done, w.due, w.sent, w.done)
		}
		if sh.ok != (i != 3) {
			t.Errorf("request %d: ok = %v", i, sh.ok)
		}
	}
	if lag := shots[2].sent - shots[2].due; lag != 15*time.Millisecond {
		t.Errorf("lag of request 2 = %v, want 15ms", lag)
	}
	if latency := shots[2].done - shots[2].due; latency != 17*time.Millisecond {
		t.Errorf("latency of request 2 = %v, want 17ms from its due time", latency)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 1, Name: "leaf", StartNs: 12, EndNs: 20},
		{ID: 3, Parent: 0, Name: "a", StartNs: 50, EndNs: 70},
		// Overlapping siblings are counted once, and a child is clipped to
		// its parent.
		{ID: 4, Parent: -1, Name: "wide", StartNs: 200, EndNs: 300},
		{ID: 5, Parent: 4, Name: "x", StartNs: 210, EndNs: 240},
		{ID: 6, Parent: 4, Name: "x", StartNs: 230, EndNs: 260},
		{ID: 7, Parent: 4, Name: "x", StartNs: 290, EndNs: 320},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"root": {Calls: 1, TotalNs: 100, SelfNs: 60},
		"a":    {Calls: 2, TotalNs: 40, SelfNs: 32},
		"leaf": {Calls: 1, TotalNs: 8, SelfNs: 8},
		"wide": {Calls: 1, TotalNs: 100, SelfNs: 40},
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}

	// A nil recorder runs the function and records nothing; a real one
	// nests spans by call order.
	var none *recorder
	ran := false
	none.in("x", func() { ran = true })
	if !ran {
		t.Error("nil recorder did not run the function")
	}
	rec := newRecorder()
	rec.in("outer", func() { rec.in("inner", func() {}) })
	rec.nextRun()
	rec.in("next", func() {})
	if len(rec.spans) != 3 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || rec.spans[2].Run != 1 || rec.spans[2].Parent != -1 {
		t.Errorf("recorded spans: %+v", rec.spans)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	noisy := func(v float64) stat { return stat{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 10} }
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "offers_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m    metricSpec
		a, b stat
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(120), "ok"},
		{lower, noisy(100), steady(101), "unresolved"},
		{lower, steady(100), noisy(130), "regressed"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %g → %g: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two small result files.
func TestCompareFiles(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var file resultFile
		for seed := int64(1); seed <= 4; seed++ {
			for _, w := range spec.Workloads {
				run := result{Workload: w.Name, Seed: seed, Metrics: map[string]stat{}}
				for _, m := range spec.EndToEnd {
					v := 100 + float64(seed)/10
					if m.Name == "offers_per_s" && w.Name == "stream_waves" {
						v *= scale
					}
					run.Metrics[m.Name] = stat{Unit: m.Unit, Value: v}
				}
				file.Runs = append(file.Runs, run)
			}
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 1), write("same.json", 1), write("slower.json", 0.5)
	specPath := filepath.Join("..", "..", "BENCHMARK.json")
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, specPath, a, same); err != nil || regressed {
		t.Errorf("identical sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, specPath, a, slower)
	if err != nil || !regressed {
		t.Errorf("halved throughput: regressed=%v err=%v", regressed, err)
	}
	if n := strings.Count(out.String(), "regressed"); n != 2 { // the row and the summary line
		t.Errorf("want exactly one regressed row:\n%s", out.String())
	}
	if code := realMain(context.Background(), []string{"-spec", specPath, "-compare", a, slower}, io.Discard, io.Discard); code != 1 {
		t.Errorf("-compare on a regression exited %d, want 1", code)
	}
}
