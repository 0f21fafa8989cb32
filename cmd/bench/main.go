// Command bench is the repository's benchmark: five seeded workloads over
// one generated marketplace, thirteen end-to-end metrics measured with
// tracing off, and a per-layer table from a separate traced pass that
// times calls into each layer's public functions from outside.
//
//	go run ./cmd/bench -workload all|<name> -seed N [-seconds S] [-trace 0|1]
//	                   [-out result.json] [-spans spans.json]
//	go run ./cmd/bench -compare a.json b.json
//
// Every run generates its inputs from the seed, checks its outputs, prints
// every metric by name with unit, median, quartiles and sample count, and
// ends with one JSON line {correct, attempted, failed, metrics}. See
// README.md in this directory for why each workload exists and what each
// metric means on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind (the synthd binary,
// bundles, durable directories). It is relative to the working directory
// so a run reads and writes only inside its checkout, and .gitignore
// names it.
var buildDir = ".bench_build"

// workload is one traffic mix. run measures it untraced and fills every
// end-to-end metric; metrics another workload owns come from the
// library-path probes in probe.go.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"batch_oneshot", runBatchOneshot},
	{"stream_waves", runStreamWaves},
	{"serve_http", runServeHTTP},
	{"catalog_growth", runCatalogGrowth},
	{"offline_learn", runOfflineLearn},
}

// environment is recorded with every result: numbers from different
// machines or toolchains are not comparable, and the file should say so.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    string `json:"config_workers"`
	Revision   string `json:"vcs_revision"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    "default (4)",
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Revision = s.Value
			}
		}
	}
	return env
}

// result is one run of one workload, as written to -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests"`
	Metrics   map[string]stat   `json:"metrics"`
	// CalibrationMs is the run's median calibration time and SpeedFactor
	// nominal ÷ that, the correction its time metrics were scaled by
	// (calibrate.go).
	CalibrationMs float64     `json:"calibration_ms"`
	SpeedFactor   float64     `json:"speed_factor"`
	WallS         float64     `json:"wall_s"`
	Env           environment `json:"env"`
}

// resultFile is the -out artifact: every run appended, so one file holds
// a whole set (all workloads, several seeds) for -compare.
type resultFile struct {
	Runs []result `json:"runs"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed    = fs.Int64("seed", 1, "marketplace and request-order seed")
		seconds = fs.Float64("seconds", 6, "how long the workload's own phase measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer table from the traced pass")
		out     = fs.String("out", "", "append every run's full result to this JSON file")
		spans   = fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		spec    = fs.String("spec", "BENCHMARK.json", "metric definitions and bounds for -compare")
		scale   = fs.String("scale", "full", "marketplace scale")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "bench: unknown -scale %q\n", *scale)
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *name)
		return 2
	}

	ok := true
	for _, w := range selected {
		b := &bench{
			seed:    *seed,
			seconds: *seconds,
			smoke:   *scale == "smoke",
			traced:  *trace != 0,
			spans:   *spans,
			log:     stderr,
		}
		res, err := b.execute(ctx, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		printResult(stdout, res)
		ok = ok && res.Correct
	}
	if !ok {
		return 1
	}
	return 0
}

// bench is the state of one run of one workload.
type bench struct {
	seed    int64
	seconds float64
	smoke   bool
	traced  bool
	spans   string
	log     io.Writer

	dir     string // scratch directory of this run, under buildDir
	started time.Time
	res     *result
	// calibrations are the run's machine-speed samples (calibrate.go).
	calibrations []float64
	// cleanup drops what the run parked in process-wide state (the match
	// registry), so -workload all does not hand a later workload the
	// heap of an earlier one.
	cleanup []func()
}

// execute runs one workload (or, traced, the layer program) in a fresh
// scratch directory and returns its result. Only an inability to run at
// all is an error; a failed output check makes the result incorrect.
func (b *bench) execute(ctx context.Context, w workload) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	b.res = &result{
		Workload: w.name, Seed: b.seed, Seconds: b.seconds, Traced: b.traced,
		Digests: map[string]string{}, Metrics: map[string]stat{},
		Env: currentEnvironment(),
	}
	b.calibrate()
	b.started = time.Now()
	run := w.run
	if b.traced {
		run = runLayers
	}
	err = run(ctx, b)
	for _, release := range b.cleanup {
		release()
	}
	if err != nil {
		return nil, err
	}
	b.calibrate()
	b.res.CalibrationMs = median(b.calibrations)
	b.res.SpeedFactor = nominalCalibrationMs / b.res.CalibrationMs
	for name, s := range b.res.Metrics {
		b.res.Metrics[name] = correct(s, b.res.SpeedFactor)
	}
	b.res.WallS = time.Since(b.started).Seconds()
	b.res.Correct = len(b.res.Problems) == 0 && b.res.Failed == 0
	return b.res, nil
}

// put records a metric from its samples. A metric with no sample, or one
// that is not a number, is a failed check: nothing was measured.
func (b *bench) put(name, unit string, samples ...float64) {
	s := summarize(unit, samples)
	if len(samples) == 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
		b.check(false, "%s: no measurement (%d samples, value %v)", name, len(samples), s.Value)
		s = stat{Unit: unit}
	}
	b.res.Metrics[name] = s
}

// endSetup closes the set-up interval: everything from the start of the
// workload's preparation to the first timed operation.
func (b *bench) endSetup() {
	b.put("setup_s", "s", time.Since(b.started).Seconds())
	b.calibrate()
}

// calibrate samples the machine's speed at a phase boundary, never inside
// a timed interval.
func (b *bench) calibrate() {
	samples := calibrationSamples
	if b.smoke {
		samples = 1 // the smoke numbers are discarded; keep the test short
	}
	for i := 0; i < samples; i++ {
		b.calibrations = append(b.calibrations, calibrate())
	}
}

// ops counts operations attempted and failed; a failed one has no latency.
func (b *bench) ops(attempted, failed int) {
	b.res.Attempted += attempted
	b.res.Failed += failed
}

// check records a failed output check. The run goes on, so one report
// lists every check that failed, and exits non-zero at the end.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.res.Problems = append(b.res.Problems, fmt.Sprintf(format, args...))
	}
}

// digest records a named output digest, printed with the result so a
// behaviour change is visible across commits.
func (b *bench) digest(name, value string) { b.res.Digests[name] = value }

// deadline is when the workload's own phase stops starting new
// repetitions: -seconds from now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "# "+format+"\n", args...)
}

func appendResult(path string, res *result) error {
	var file resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	file.Runs = append(file.Runs, *res)
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult writes the human-readable table and, as the last line, the
// one JSON object the driver reads.
func printResult(w io.Writer, res *result) {
	mode := "end-to-end, tracing off"
	if res.Traced {
		mode = "per-layer, traced pass"
	}
	fmt.Fprintf(w, "## %s seed=%d seconds=%g (%s) wall=%.1fs\n", res.Workload, res.Seed, res.Seconds, mode, res.WallS)
	fmt.Fprintf(w, "## %s GOMAXPROCS=%d nproc=%d Config.Workers=%s rev=%s\n",
		res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.Workers, res.Env.Revision)
	fmt.Fprintf(w, "## calibration %.1f ms (nominal %.0f): times × %.3f, rates ÷ %.3f; raw = as measured\n",
		res.CalibrationMs, nominalCalibrationMs, res.SpeedFactor, res.SpeedFactor)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %-9s %14s %14s %14s %6s %14s\n", "metric", "unit", "median", "q1", "q3", "n", "raw")
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %-9s %14.6g %14.6g %14.6g %6d %14.6g\n", name, s.Unit, s.Value, s.Q1, s.Q3, s.N, s.Raw)
	}
	digests := make([]string, 0, len(res.Digests))
	for name := range res.Digests {
		digests = append(digests, name)
	}
	sort.Strings(digests)
	for _, name := range digests {
		fmt.Fprintf(w, "digest %-27s %s\n", name, res.Digests[name])
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		last.Metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", line)
}
