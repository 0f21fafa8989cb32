// Command experiments regenerates the paper's tables and figures on a
// synthetic marketplace, plus the ablation sweeps of internal/experiments
// (ablation.go describes what each probes).
//
// Usage:
//
//	experiments -all                     # everything, default scale
//	experiments -table2 -fig6            # selected experiments
//	experiments -all -scale large        # laptop-scale corpus (slower)
//	experiments -all -seed 7 -out report.txt
//	experiments -all -cpuprofile cpu.prof -memprofile mem.prof
//	experiments -stream 16               # replay incoming offers as a 16-wave feed
//	experiments -faults                  # fault-injection replay: retry recovery, host outage
//
// Output is text shaped like the paper's tables and figures (coverage /
// precision series); throughput and latency are measured by cmd/bench,
// not here. The profile flags capture the whole run (marketplace
// generation, offline learning, and every selected experiment) for go
// tool pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"prodsynth/internal/core"
	"prodsynth/internal/experiments"
	"prodsynth/internal/offer"
	"prodsynth/internal/stream"
	"prodsynth/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	// All teardown (profile flushes, file closes) happens via defers in
	// realMain, so it must return rather than os.Exit on failure.
	os.Exit(realMain())
}

func realMain() int {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		table2  = flag.Bool("table2", false, "Table 2: end-to-end synthesis quality")
		table3  = flag.Bool("table3", false, "Table 3: per top-level category")
		table4  = flag.Bool("table4", false, "Table 4: recall by offer-set size")
		fig6    = flag.Bool("fig6", false, "Figure 6: classifier vs single features")
		fig7    = flag.Bool("fig7", false, "Figure 7: with vs without historical matches")
		fig8    = flag.Bool("fig8", false, "Figure 8: baseline comparison")
		fig9    = flag.Bool("fig9", false, "Figure 9: COMA++ delta settings")
		ablate  = flag.Bool("ablations", false, "ablation sweeps")
		nstream = flag.Int("stream", 0, "replay the incoming offers as a continuous feed of this many waves")
		faults  = flag.Bool("faults", false, "fault-injection replay: retry recovery and host-outage scenarios")
		scale   = flag.String("scale", "medium", "corpus scale: small, medium, large")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "pipeline worker pool size (0 = default)")
		out     = flag.String("out", "", "write report here (default stdout)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	)
	flag.Parse()

	if !(*all || *table2 || *table3 || *table4 || *fig6 || *fig7 || *fig8 || *fig9 || *ablate || *nstream > 0 || *faults) {
		flag.Usage()
		return 2
	}
	gen, err := scaleConfig(*scale)
	if err != nil {
		log.Print(err)
		return 2
	}

	// The heap-profile defer is registered before the CPU-profile ones,
	// so it runs last (LIFO): the snapshot is taken after CPU profiling
	// has stopped, and both flush even when the run fails.
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Print(err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		w = f
	}

	err = run(w, runConfig{
		all: *all, table2: *table2, table3: *table3, table4: *table4,
		fig6: *fig6, fig7: *fig7, fig8: *fig8, fig9: *fig9, ablate: *ablate,
		nstream: *nstream, faults: *faults,
		scale: *scale, gen: gen, seed: *seed, workers: *workers,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

type runConfig struct {
	all, table2, table3, table4    bool
	fig6, fig7, fig8, fig9, ablate bool
	nstream                        int
	faults                         bool
	scale                          string
	gen                            synth.Config
	seed                           int64
	workers                        int
}

func run(w io.Writer, rc runConfig) error {
	gen := rc.gen
	gen.Seed = rc.seed
	start := time.Now()
	fmt.Fprintf(w, "# prodsynth experiments — scale=%s seed=%d\n", rc.scale, rc.seed)
	fmt.Fprintf(w, "# generating marketplace: %d categories/domain, %d products/category, %d merchants\n\n",
		gen.CategoriesPerDomain, gen.ProductsPerCategory, gen.Merchants)

	env, err := experiments.Setup(context.Background(), gen, core.Config{Workers: rc.workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# setup done in %v: %d historical offers, %d incoming offers\n\n",
		time.Since(start).Round(time.Millisecond),
		len(env.Dataset.HistoricalOffers), len(env.Dataset.IncomingOffers))

	if rc.all || rc.table2 {
		experiments.RenderTable2(w, experiments.Table2(env))
	}
	if rc.all || rc.table3 {
		experiments.RenderTable3(w, experiments.Table3(env))
	}
	if rc.all || rc.table4 {
		heavy, light := experiments.Table4(env)
		experiments.RenderTable4(w, heavy, light)
	}
	figures := []struct {
		enabled bool
		build   func(*experiments.Env) (*experiments.Figure, error)
	}{
		{rc.all || rc.fig6, experiments.Figure6},
		{rc.all || rc.fig7, experiments.Figure7},
		{rc.all || rc.fig8, experiments.Figure8},
		{rc.all || rc.fig9, experiments.Figure9},
	}
	for _, f := range figures {
		if !f.enabled {
			continue
		}
		fig, err := f.build(env)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure(w, fig); err != nil {
			return err
		}
	}
	if rc.all || rc.ablate {
		if err := runAblations(context.Background(), w, env); err != nil {
			return err
		}
	}
	if rc.nstream > 0 {
		if err := runStreamReplay(w, env, rc.nstream); err != nil {
			return err
		}
	}
	if rc.faults {
		if err := runFaultReplay(w, env); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runStreamReplay replays the dataset's incoming offers as a continuous
// feed of n waves through the streaming pipeline with cross-batch
// cluster memory, reports per-wave cost and cluster-memory activity, and
// checks the merged stream output against the one-shot runtime result
// the Env already holds — the stream≡batch equivalence, live.
func runStreamReplay(w io.Writer, env *experiments.Env, n int) error {
	offers := env.Dataset.IncomingOffers
	if n > len(offers) {
		n = len(offers)
	}
	// The cancel releases both the pipeline and the feeder when a wave
	// error makes this function return early.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waves := make(chan []offer.Offer)
	go func() {
		defer close(waves)
		for i := 0; i < n; i++ {
			select {
			case waves <- offers[i*len(offers)/n : (i+1)*len(offers)/n]:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := stream.Run(ctx, env.Dataset.Catalog, env.Offline, waves,
		core.MapFetcher(env.Dataset.Pages), env.Config, stream.Options{})

	fmt.Fprintf(w, "## streaming replay — %d offers over %d waves, cross-batch cluster memory\n\n", len(offers), n)
	fmt.Fprintf(w, "%6s %8s %9s %9s %8s %7s %8s %8s %9s %10s %10s %10s\n",
		"wave", "offers", "excluded", "clusters", "open", "sealed",
		"fetches", "retried", "feedonly", "prepare", "fuse", "elapsed")
	var final stream.Result
	sealed := 0
	for r := range out {
		if r.Err != nil {
			return fmt.Errorf("stream wave %d: %w", r.Wave, r.Err)
		}
		sealed += len(r.Sealed)
		if r.Final {
			final = r
			continue
		}
		fmt.Fprintf(w, "%6d %8d %9d %9d %8d %7d %8d %8d %9d %10v %10v %10v\n",
			r.Wave, r.Offers, r.ExcludedMatched, r.Clusters, r.OpenClusters, len(r.Sealed),
			r.Fetch.Attempts, r.Fetch.Retried, len(r.Fetch.FeedOnly),
			r.PrepareElapsed.Round(time.Microsecond), r.FuseElapsed.Round(time.Microsecond),
			r.Elapsed.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "\n# merged: %d products from %d offers in %v processing time (prepare %v, fuse %v)\n",
		len(final.Products), final.Offers, final.Elapsed.Round(time.Millisecond),
		final.PrepareElapsed.Round(time.Millisecond), final.FuseElapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "# sealed clusters: %d total (%d at close)\n", sealed, len(final.Sealed))
	fmt.Fprintf(w, "# fetch: %s\n", final.Fetch)

	verdict := productsVerdict(final.Products, env.Runtime.Products)
	fmt.Fprintf(w, "# stream ≡ one-shot synthesis: %s\n\n", verdict)
	return nil
}

// scaleConfig returns the marketplace generator settings for a -scale
// name, or an error for a name it does not know.
func scaleConfig(scale string) (synth.Config, error) {
	switch scale {
	case "small":
		return synth.Config{CategoriesPerDomain: 2, ProductsPerCategory: 20, Merchants: 24}, nil
	case "medium":
		return synth.Config{CategoriesPerDomain: 4, ProductsPerCategory: 60, Merchants: 60}, nil
	case "large":
		return synth.ExperimentConfig(), nil
	default:
		return synth.Config{}, fmt.Errorf("unknown -scale %q: want small|medium|large", scale)
	}
}

func runAblations(ctx context.Context, w io.Writer, env *experiments.Env) error {
	type ablation struct {
		name    string
		run     func(context.Context, *experiments.Env) ([]experiments.AblationRow, error)
		metrics []string
	}
	for _, a := range []ablation{
		{"drop one feature", experiments.AblationDropFeature, nil},
		{"name-similarity feature (§7 future work)", experiments.AblationNameFeature, nil},
		{"value fusion strategy", experiments.AblationFusion, []string{"attr precision", "products"}},
		{"clustering key attributes", experiments.AblationClusterKeys, []string{"attr precision", "products"}},
		{"extraction coverage", experiments.AblationExtraction, []string{"attr precision", "products"}},
	} {
		rows, err := a.run(ctx, env)
		if err != nil {
			return err
		}
		experiments.RenderAblation(w, a.name, rows, a.metrics...)
	}
	return nil
}
