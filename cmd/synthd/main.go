// Command synthd is the product-synthesis daemon: it boots a learned
// system once — from a catalog+model bundle (cmd/synthesize -save-bundle)
// or by learning from a dataset directory — and serves synthesis over
// HTTP until terminated.
//
// Usage:
//
//	synthd -bundle warm.psbd [-addr :8080]        # warm boot from one artifact
//	synthd -data ./data [-addr :8080]             # learn at boot, then serve
//	synthd -data ./data -emit-request             # print a /v1/synthesize body and exit
//	synthd -bundle warm.psbd -data-dir ./catalog  # durable catalog: WAL + snapshots
//
// With -data-dir the catalog lives out-of-core (see prodsynth.OpenDurable):
// the first boot seeds the directory from -bundle/-data, later boots
// recover the catalog from its snapshots and write-ahead log (surviving
// kill -9), background compaction snapshots while serving, stream cluster
// memory spills to disk under <data-dir>/spill, and recovery time plus
// log depth are exported on /metrics.
//
// Endpoints (see prodsynth/internal/serve for the full contract):
//
//	POST /v1/synthesize         one-shot synthesis
//	POST /v1/synthesize/stream  wave-at-a-time synthesis, NDJSON out
//	POST /v1/reload             hot-swap the model without downtime
//	GET  /healthz /readyz /metrics
//
// Reload semantics: with -reload-data (or -data) set, POST /v1/reload
// re-learns from that directory's historical feed against the serving
// catalog; with only -bundle set, it re-reads the bundle file — the ops
// flow where a batch job atomically replaces the bundle on disk and then
// pokes the daemon. The swap is atomic; in-flight requests finish on the
// generation they started with.
//
// On SIGTERM or SIGINT the daemon drains gracefully: the listener closes,
// in-flight requests finish (bounded by -drain-timeout), then the process
// exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prodsynth"
	"prodsynth/internal/dataset"
	"prodsynth/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synthd: ")

	var (
		bundle       = flag.String("bundle", "", "catalog+model bundle to boot from (skips learning)")
		data         = flag.String("data", "", "dataset directory to learn from at boot")
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxInFlight  = flag.Int("max-inflight", 64, "max concurrent synthesis requests before shedding with 429")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request synthesis deadline (requests may tighten it, never extend)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful drain bound after SIGTERM")
		reloadData   = flag.String("reload-data", "", "dataset directory re-learned by POST /v1/reload (defaults to -data)")
		emitRequest  = flag.Bool("emit-request", false, "print a /v1/synthesize request body for -data's incoming feed and exit")
		verbose      = flag.Bool("v", false, "log boot statistics")

		dataDir        = flag.String("data-dir", "", "durable catalog directory: recovered at boot (seeded from -bundle/-data on first boot), every catalog commit WAL-logged, stream spill backed by disk")
		fsync          = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval, none")
		snapshotEvery  = flag.Duration("snapshot-interval", 0, "background compaction period with -data-dir (0 = depth-triggered only)")
		compactRecords = flag.Int("compact-records", 10000, "compact when the WAL tail reaches this many records (0 = never by depth)")
	)
	flag.Parse()

	if *emitRequest {
		if *data == "" {
			log.Fatal("-emit-request requires -data")
		}
		ds, err := dataset.LoadWorkload(*data)
		if err != nil {
			log.Fatal(err)
		}
		req := serve.SynthesizeRequest{
			Offers: serve.WireOffers(ds.IncomingOffers),
			Pages:  serve.WirePages(ds.Pages),
		}
		if err := json.NewEncoder(os.Stdout).Encode(req); err != nil {
			log.Fatal(err)
		}
		return
	}

	var (
		store *prodsynth.Catalog
		model *prodsynth.Model
		learn func(*prodsynth.Catalog) (*prodsynth.Model, error)
		err   error
	)
	switch {
	case *bundle != "":
		store, model, err = readBundle(*bundle)
		if err != nil {
			log.Fatal(err)
		}
		if *verbose {
			st := model.Stats()
			log.Printf("booted from bundle %s: %d categories, %d products, %d correspondences",
				*bundle, store.NumCategories(), store.NumProducts(), st.Correspondences)
		}
	case *data != "":
		ds, err := dataset.Load(*data)
		if err != nil {
			log.Fatal(err)
		}
		store = ds.Catalog
		// Learning is deferred until the serving catalog is final: with
		// -data-dir, the recovered durable catalog replaces ds.Catalog
		// and the model must be learned against what is actually served.
		learn = func(st *prodsynth.Catalog) (*prodsynth.Model, error) {
			return prodsynth.Learn(context.Background(), st, ds.HistoricalOffers, prodsynth.MapFetcher(ds.Pages))
		}
	default:
		log.Print("one of -bundle or -data is required")
		flag.Usage()
		os.Exit(2)
	}

	// With -data-dir the catalog lives out-of-core: recover it (snapshot
	// load + WAL replay), seeding an empty directory from the boot
	// catalog, and serve the durable store — every later AddToCatalog
	// commit is logged as it happens.
	var dur *prodsynth.Durable
	var sysOpts []prodsynth.Option
	if *dataDir != "" {
		pol, ok := fsyncPolicy(*fsync)
		if !ok {
			log.Fatalf("-fsync %q: want always, interval, or none", *fsync)
		}
		dur, err = prodsynth.OpenDurable(*dataDir, prodsynth.DurabilityOptions{
			Fsync:            pol,
			SnapshotInterval: *snapshotEvery,
			CompactRecords:   *compactRecords,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer dur.Close()
		if dur.Catalog().NumCategories() == 0 {
			if err := dur.ImportCatalog(store); err != nil {
				log.Fatal(err)
			}
			if *verbose {
				log.Printf("seeded %s: %d categories, %d products", *dataDir, store.NumCategories(), store.NumProducts())
			}
		} else if *verbose {
			rec := dur.Stats().Recovery
			log.Printf("recovered %s in %s: epoch %d, %d snapshot products, %d log records replayed over %d segments",
				*dataDir, rec.Duration, rec.SnapshotEpoch, rec.SnapshotProducts, rec.ReplayedRecords, rec.Segments)
		}
		store = dur.Catalog()
		sysOpts = append(sysOpts, prodsynth.WithDurability(dur))
	}

	if model == nil {
		if model, err = learn(store); err != nil {
			log.Fatal(err)
		}
		if *verbose {
			st := model.Stats()
			log.Printf("learned from %s: %d historical offers, %d correspondences", *data, st.HistoricalOffers, st.Correspondences)
		}
	}

	sys := prodsynth.NewSystem(store, model, sysOpts...)
	srv := serve.New(sys, serve.Options{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		Reload:         reloadFunc(store, *reloadData, *data, *bundle),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Parseable by scripts and tests (and the only stdout line): the
	// resolved address matters when -addr picked port 0.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if dur != nil {
		// Background snapshotting while serving: interval fsync and
		// compaction run alongside the listener, and the durability
		// stats are exported on /metrics.
		go dur.Run(ctx)
		go durableMetrics(ctx, dur, srv.Metrics())
	}
	if err := srv.Run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, exiting")
}

// durableMetrics exports the durability layer on the server's /metrics
// registry: recovery cost once, log depth and compaction progress
// refreshed every second.
func durableMetrics(ctx context.Context, dur *prodsynth.Durable, reg *serve.Registry) {
	var (
		recoveryMS  = reg.Gauge("synthd_durable_recovery_ms", "Wall time of the boot recovery (snapshot load + WAL replay), in milliseconds.")
		replayed    = reg.Gauge("synthd_durable_recovery_replayed_records", "WAL records replayed over the snapshot at boot.")
		epoch       = reg.Gauge("synthd_durable_snapshot_epoch", "Live snapshot epoch (advances on every compaction).")
		compactions = reg.Gauge("synthd_durable_compactions_total", "Compactions completed since boot.")
		depthRecs   = reg.Gauge("synthd_durable_log_depth_records", "WAL records not yet covered by a snapshot (crash-now replay cost).")
		depthBytes  = reg.Gauge("synthd_durable_log_depth_bytes", "WAL bytes not yet covered by a snapshot.")
		appendErrs  = reg.Gauge("synthd_durable_append_errors_total", "WAL write, fsync and rotation failures (the in-memory catalog stays correct; the log keeps those records and writes them again).")
	)
	st := dur.Stats()
	recoveryMS.Set(st.Recovery.Duration.Milliseconds())
	replayed.Set(int64(st.Recovery.ReplayedRecords))

	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		st = dur.Stats()
		epoch.Set(int64(st.Epoch))
		compactions.Set(int64(st.Compactions))
		depthRecs.Set(int64(st.LogDepthRecords))
		depthBytes.Set(int64(st.LogDepthBytes))
		appendErrs.Set(int64(st.AppendErrors))
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// fsyncPolicy parses the -fsync flag.
func fsyncPolicy(s string) (prodsynth.FsyncPolicy, bool) {
	switch s {
	case "always":
		return prodsynth.SyncAlways, true
	case "interval":
		return prodsynth.SyncInterval, true
	case "none":
		return prodsynth.SyncNone, true
	}
	return prodsynth.SyncAlways, false
}

// reloadFunc picks the /v1/reload source: a dataset directory to re-learn
// from (against the serving catalog), else the bundle file to re-read,
// else nil (endpoint answers 501).
func reloadFunc(store *prodsynth.Catalog, reloadData, data, bundle string) func(context.Context) (*prodsynth.Model, error) {
	src := reloadData
	if src == "" {
		src = data
	}
	switch {
	case src != "":
		return func(ctx context.Context) (*prodsynth.Model, error) {
			ds, err := dataset.LoadWorkload(src)
			if err != nil {
				return nil, err
			}
			return prodsynth.Learn(ctx, store, ds.HistoricalOffers, prodsynth.MapFetcher(ds.Pages))
		}
	case bundle != "":
		return func(context.Context) (*prodsynth.Model, error) {
			_, m, err := readBundle(bundle)
			return m, err
		}
	}
	return nil
}

func readBundle(path string) (*prodsynth.Catalog, *prodsynth.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return prodsynth.LoadBundle(f)
}
