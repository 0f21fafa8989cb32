package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"prodsynth"
)

// Every run reports every end-to-end metric, so that any two runs of any
// workload can be compared line by line. The metrics a workload does not
// own are measured here, on the library path: the same inputs (request
// mix, bundle, grown catalog, wave feed) through the public entry points,
// with no daemon, no filler catalog and no long phase. They double as the
// bypass control: a change to the HTTP layer should move req_small_p50_ms
// on serve_http and leave it alone on batch_oneshot.

const (
	probeSmallCalls = 500
	probeLargeCalls = 80
	probeBoots      = 5
	probeRecoveries = 7
	// probeFiller products join the marketplace catalog in the recovery
	// probe. Without them the reopen is 12 ms, half of it file-system
	// calls whose jitter then is the metric; with them it is ≈ 60 ms of
	// snapshot decoding, the thing recovery_ms is about.
	probeFiller = 15000
)

// probed are the metrics a probe can supply; a workload names the ones it
// owns and gets the rest from here.
var probed = []string{"allocs_per_offer", "wave_p50_ms", "req_small_p50_ms", "boot_ms", "recovery_ms"}

// probe measures the probed metrics the workload does not own. It runs
// right after the reference synthesis and before the workload's own
// phase, so a probe sees the same process state on every workload.
func (b *bench) probe(ctx context.Context, m *market, owned []string) error {
	owns := func(name string) bool { return slices.Contains(owned, name) }
	if !owns("req_small_p50_ms") || !owns("allocs_per_offer") {
		if err := b.probeRequests(ctx, m, owns); err != nil {
			return fmt.Errorf("request probe: %w", err)
		}
	}
	if !owns("boot_ms") {
		if err := b.probeBoot(m); err != nil {
			return fmt.Errorf("boot probe: %w", err)
		}
	}
	if !owns("recovery_ms") {
		if err := b.probeRecovery(ctx, m); err != nil {
			return fmt.Errorf("recovery probe: %w", err)
		}
	}
	if !owns("wave_p50_ms") {
		p, err := streamPass(ctx, m.sys, m.ds.IncomingOffers, m.pages)
		if err != nil {
			return fmt.Errorf("wave probe: %w", err)
		}
		b.check(productDigest(p.final.Products) == b.res.Digests["oneshot_products"],
			"stream final products differ from the one-shot digest")
		b.ops(len(p.waveMs), 0)
		b.put("wave_p50_ms", "ms", p.waveMs...)
	}
	return nil
}

// probeRequests times the serving mix's small and large requests as
// direct SynthesizeContext calls, each against its own pages. It also
// supplies allocs_per_offer where the workload cannot count its own
// (serve_http: the daemon's heap is another process's).
func (b *bench) probeRequests(ctx context.Context, m *market, owns func(string) bool) error {
	mix := b.newRequestMix(m)
	var offers int
	call := func(r *request) (float64, error) {
		start := time.Now()
		_, err := m.sys.SynthesizeContext(ctx, r.offers, r.pages)
		offers += len(r.offers)
		return float64(time.Since(start)) / 1e6, err
	}
	series := func(pool []*request, calls int) ([]float64, error) {
		if b.smoke {
			calls = len(pool)
		}
		ms := make([]float64, 0, calls)
		for i := -len(pool); i < calls; i++ { // one untimed pass over the pool first
			d, err := call(pool[(i+len(pool))%len(pool)])
			if err != nil {
				return nil, err
			}
			if i >= 0 {
				ms = append(ms, d)
			}
		}
		return ms, nil
	}
	before := mallocCount()
	offers = 0
	small, err := series(mix.small, probeSmallCalls)
	if err != nil {
		return err
	}
	large, err := series(mix.large, probeLargeCalls)
	if err != nil {
		return err
	}
	mallocs := mallocCount() - before
	b.ops(len(small)+len(large), 0)
	if !owns("req_small_p50_ms") {
		b.put("req_small_p50_ms", "ms", small...)
		b.put("req_large_p50_ms", "ms", large...)
	}
	if !owns("allocs_per_offer") {
		b.put("allocs_per_offer", "count", float64(mallocs)/float64(offers))
	}
	return nil
}

// saveBundle writes the market's catalog and model as one bundle file.
func (b *bench) saveBundle(m *market) (string, error) {
	path := filepath.Join(b.dir, "warm.psbd")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := prodsynth.SaveBundle(f, m.ds.Catalog, m.model); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// loadBundle times one LoadBundle from the file: what a booting process
// does before it can serve.
func loadBundle(path string) (store *prodsynth.Catalog, ms float64, err error) {
	runtime.GC()
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	store, _, err = prodsynth.LoadBundle(f)
	return store, float64(time.Since(start)) / 1e6, err
}

// probeBoot is boot_ms without a process: save the bundle once, load it
// back several times. The loaded catalog must encode to the saved bytes.
func (b *bench) probeBoot(m *market) error {
	path, err := b.saveBundle(m)
	if err != nil {
		return err
	}
	want, err := catalogBytes(m.ds.Catalog)
	if err != nil {
		return err
	}
	var ms []float64
	for i := 0; i < probeBoots; i++ {
		store, d, err := loadBundle(path)
		if err != nil {
			return err
		}
		ms = append(ms, d)
		if i == 0 {
			got, err := catalogBytes(store)
			if err != nil {
				return err
			}
			b.check(bytes.Equal(got, want), "catalog loaded from the bundle encodes differently from the one saved")
		}
	}
	b.ops(len(ms), 0)
	b.put("boot_ms", "ms", ms...)
	return nil
}

func catalogBytes(store *prodsynth.Catalog) ([]byte, error) {
	var buf bytes.Buffer
	err := prodsynth.SaveCatalog(&buf, store)
	return buf.Bytes(), err
}

// durableOptions is the flush policy of every durable directory in the
// benchmark: no fsync per append, one explicit Sync before Close. Stated
// because it must be the same on both sides of any comparison.
var durableOptions = prodsynth.DurabilityOptions{Fsync: prodsynth.SyncNone}

// probeRecovery is recovery_ms at a quarter of catalog_growth's size:
// import the marketplace catalog plus probeFiller products into a fresh
// durable directory, commit the one-shot products through the WAL, close,
// and reopen several times.
func (b *bench) probeRecovery(ctx context.Context, m *market) error {
	base, err := b.fillerCatalog(m.ds.Catalog, probeFiller)
	if err != nil {
		return err
	}
	dir := filepath.Join(b.dir, "probe-durable")
	dur, err := prodsynth.OpenDurable(dir, durableOptions)
	if err != nil {
		return err
	}
	if err := dur.ImportCatalog(base); err != nil {
		dur.Close()
		return err
	}
	sys := prodsynth.NewSystem(dur.Catalog(), m.model)
	res, err := sys.SynthesizeContext(ctx, m.ds.IncomingOffers, m.pages)
	if err != nil {
		dur.Close()
		return err
	}
	sys.AddToCatalog(res.Products, "bench")
	prodsynth.ReleaseMatchState(dur.Catalog())
	want, err := closeDurable(dur)
	if err != nil {
		return err
	}
	var ms []float64
	for i := 0; i < probeRecoveries; i++ {
		reopened, d, err := recoverDurable(dir)
		if err != nil {
			return err
		}
		ms = append(ms, d)
		got, err := closeDurable(reopened)
		if err != nil {
			return err
		}
		b.check(got == want, "recovered catalog bytes differ from the bytes before Close")
	}
	b.ops(len(ms), 0)
	b.put("recovery_ms", "ms", ms...)
	return nil
}

// closeDurable syncs, closes and returns the digest of the catalog's
// encoded bytes — what recovery must reproduce.
func closeDurable(dur *prodsynth.Durable) (string, error) {
	data, err := catalogBytes(dur.Catalog())
	if err != nil {
		dur.Close()
		return "", err
	}
	if err := dur.Sync(); err != nil {
		dur.Close()
		return "", err
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum), dur.Close()
}

// recoverDurable times OpenDurable on an existing directory.
func recoverDurable(dir string) (*prodsynth.Durable, float64, error) {
	runtime.GC()
	start := time.Now()
	dur, err := prodsynth.OpenDurable(dir, durableOptions)
	return dur, float64(time.Since(start)) / 1e6, err
}
