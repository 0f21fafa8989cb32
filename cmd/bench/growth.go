package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"prodsynth"
	"prodsynth/internal/catalog"
	"prodsynth/internal/match"
)

// catalog_growth: writes beside reads. The catalog is read by match and
// written by AddToCatalog and the WAL in the same run, so registry
// deltas, version invalidation, shard locks and WAL appends all run. The
// filler makes recovery bound by snapshot decoding instead of ≈ 10 ms of
// noise; a reader-side gain that costs writers, or a codec change, shows
// here and not in batch_oneshot.

const (
	growthWaves      = 16
	fillerCategories = 40
	fillerProducts   = 60000
	minCycles        = 3
)

// filler builds fixed-shape filler: total products spread over
// fillerCategories categories that no offer references.
func (b *bench) filler(total int) ([]prodsynth.Category, []prodsynth.Product) {
	perCategory := total / fillerCategories
	if b.smoke {
		perCategory = 10
	}
	schema := prodsynth.Schema{Attributes: []prodsynth.Attribute{
		{Name: "Brand", Kind: prodsynth.KindCategorical},
		{Name: prodsynth.AttrMPN, Kind: prodsynth.KindIdentifier},
		{Name: prodsynth.AttrUPC, Kind: prodsynth.KindIdentifier},
		{Name: "Capacity", Kind: prodsynth.KindNumeric, Unit: "GB"},
		{Name: "Description", Kind: prodsynth.KindText},
	}}
	var cats []prodsynth.Category
	var prods []prodsynth.Product
	for c := 0; c < fillerCategories; c++ {
		id := fmt.Sprintf("filler/%02d", c)
		cats = append(cats, prodsynth.Category{ID: id, Name: "Filler " + id, TopLevel: "Filler", Schema: schema})
		for p := 0; p < perCategory; p++ {
			prods = append(prods, prodsynth.Product{
				ID:         fmt.Sprintf("filler-%02d-%05d", c, p),
				CategoryID: id,
				Spec: prodsynth.Spec{
					{Name: "Brand", Value: fmt.Sprintf("Fillco %d", p%17)},
					{Name: prodsynth.AttrMPN, Value: fmt.Sprintf("FL%02d-%05d", c, p)},
					{Name: prodsynth.AttrUPC, Value: fmt.Sprintf("9%02d%09d", c, p)},
					{Name: "Capacity", Value: fmt.Sprintf("%d GB", 1+p%512)},
					{Name: "Description", Value: fmt.Sprintf("filler product %d of category %d, never offered", p, c)},
				},
			})
		}
	}
	return cats, prods
}

// addAll inserts the categories, then the products.
func addAll(store *prodsynth.Catalog, cats []prodsynth.Category, prods []prodsynth.Product) error {
	for _, c := range cats {
		if err := store.AddCategory(c); err != nil {
			return err
		}
	}
	for _, p := range prods {
		if err := store.AddProduct(p); err != nil {
			return err
		}
	}
	return nil
}

// fillerCatalog returns a copy of store with total filler products added.
func (b *bench) fillerCatalog(store *prodsynth.Catalog, total int) (*prodsynth.Catalog, error) {
	base, err := catalog.FromSnapshot(store.Snapshot())
	if err != nil {
		return nil, err
	}
	cats, prods := b.filler(total)
	return base, addAll(base, cats, prods)
}

// interleave deals offer i to wave i mod n, so every wave touches every
// category and each wave's commits invalidate what the next wave reads.
func interleave(offers []prodsynth.Offer, n int) [][]prodsynth.Offer {
	waves := make([][]prodsynth.Offer, n)
	for i, o := range offers {
		waves[i%n] = append(waves[i%n], o)
	}
	return waves
}

// grown is what one growth cycle measured and must repeat exactly.
type grown struct {
	seconds   float64
	mallocs   uint64
	waveMs    []float64
	excluded  int
	added     int
	recoverMs float64
	compactMs float64
	replayed  int
	stats     prodsynth.DurabilityStats // before Close
	diskBytes int64                     // directory size before Close
	snapBytes int                       // EncodeStore bytes of the grown catalog
	builds    int64
	deltas    int64
}

// growthCycle runs one cycle in a fresh directory. Untimed: open, import
// base. Timed: the interleaved waves of SynthesizeContext + AddToCatalog;
// then Close → OpenDurable; then Compact.
func (b *bench) growthCycle(ctx context.Context, m *market, base *prodsynth.Catalog, waves [][]prodsynth.Offer, cycle int) (*grown, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("grow-%d", cycle))
	dur, err := prodsynth.OpenDurable(dir, durableOptions)
	if err != nil {
		return nil, err
	}
	if err := dur.ImportCatalog(base); err != nil {
		dur.Close()
		return nil, err
	}
	sys := prodsynth.NewSystem(dur.Catalog(), m.model)
	g := &grown{}
	builds, deltas := match.DefaultRegistry.Builds(), match.DefaultRegistry.Deltas()
	g.seconds, g.mallocs, err = timed(func() error {
		for _, wave := range waves {
			start := time.Now()
			res, err := sys.SynthesizeContext(ctx, wave, m.pages)
			if err != nil {
				return err
			}
			g.excluded += res.ExcludedMatched
			g.added += sys.AddToCatalog(res.Products, "bench").Added
			g.waveMs = append(g.waveMs, float64(time.Since(start))/1e6)
		}
		return nil
	})
	g.builds, g.deltas = match.DefaultRegistry.Builds()-builds, match.DefaultRegistry.Deltas()-deltas
	prodsynth.ReleaseMatchState(dur.Catalog())
	if err != nil {
		dur.Close()
		return nil, err
	}
	g.stats = dur.Stats()
	b.check(g.stats.AppendErrors == 0, "WAL append errors: %s", g.stats.LastAppendError)
	data, err := catalogBytes(dur.Catalog())
	if err != nil {
		dur.Close()
		return nil, err
	}
	g.snapBytes = len(data)
	want, err := closeDurable(dur)
	if err != nil {
		return nil, err
	}
	if g.diskBytes, err = dirSize(dir); err != nil {
		return nil, err
	}

	reopened, ms, err := recoverDurable(dir)
	if err != nil {
		return nil, err
	}
	g.recoverMs = ms
	g.replayed = reopened.Stats().Recovery.ReplayedRecords
	start := time.Now()
	if err := reopened.Compact(); err != nil {
		reopened.Close()
		return nil, err
	}
	g.compactMs = float64(time.Since(start)) / 1e6
	got, err := closeDurable(reopened)
	if err != nil {
		return nil, err
	}
	b.check(got == want, "cycle %d: recovered catalog bytes differ from the bytes before Close", cycle)
	return g, nil
}

func runCatalogGrowth(ctx context.Context, b *bench) error {
	m, err := b.newMarket(ctx)
	if err != nil {
		return err
	}
	base, err := b.fillerCatalog(m.ds.Catalog, fillerProducts)
	if err != nil {
		return err
	}
	waves := interleave(m.ds.IncomingOffers, growthWaves)
	b.endSetup()
	if _, err := b.reference(ctx, m, "allocs_per_offer", "wave_p50_ms", "recovery_ms"); err != nil {
		return err
	}

	var t throughput
	var waveMs, recoverMs []float64
	var first *grown
	deadline := b.deadline()
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		g, err := b.growthCycle(ctx, m, base, waves, cycle)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if first == nil {
			first = g
		}
		b.check(g.excluded == first.excluded && g.added == first.added,
			"cycle %d: excluded/added %d/%d differ from the first cycle's %d/%d", cycle, g.excluded, g.added, first.excluded, first.added)
		t.add(len(m.ds.IncomingOffers), g.seconds, g.mallocs)
		waveMs = append(waveMs, g.waveMs...)
		recoverMs = append(recoverMs, g.recoverMs)
	}
	b.ops(len(waveMs)+len(recoverMs), 0)
	b.logf("catalog_growth: %d cycles, %d products added and %d offers excluded per cycle, %d records replayed",
		len(recoverMs), first.added, first.excluded, first.replayed)
	t.report(b)
	b.put("wave_p50_ms", "ms", waveMs...)
	b.put("recovery_ms", "ms", recoverMs...)
	return nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
