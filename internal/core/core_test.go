package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"prodsynth/internal/cluster"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
)

func dataset(t *testing.T) *synth.Dataset {
	t.Helper()
	return synth.Generate(synth.Config{
		Seed:                11,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 25,
		Merchants:           24,
	})
}

func TestMapFetcher(t *testing.T) {
	f := MapFetcher{"u": "page"}
	if got, err := f.Fetch("u"); err != nil || got != "page" {
		t.Errorf("Fetch = %q, %v", got, err)
	}
	if _, err := f.Fetch("missing"); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("err = %v", err)
	}
}

// TestMapFetcherFromDocs pins the duplicate-URL rule: a URL repeated with
// a conflicting body is rejected (previously page lists degraded to the
// map's silent last-wins), while exact repeats remain legal.
func TestMapFetcherFromDocs(t *testing.T) {
	f, err := MapFetcherFromDocs([]PageDoc{
		{URL: "a", HTML: "<p>1</p>"},
		{URL: "b", HTML: "<p>2</p>"},
		{URL: "a", HTML: "<p>1</p>"}, // idempotent repeat
	})
	if err != nil {
		t.Fatalf("MapFetcherFromDocs = %v, want nil", err)
	}
	if got, err := f.Fetch("a"); err != nil || got != "<p>1</p>" {
		t.Errorf("Fetch(a) = %q, %v", got, err)
	}
	if len(f) != 2 {
		t.Errorf("fetcher holds %d pages, want 2", len(f))
	}

	_, err = MapFetcherFromDocs([]PageDoc{
		{URL: "a", HTML: "<p>1</p>"},
		{URL: "a", HTML: "<p>other</p>"},
	})
	if !errors.Is(err, ErrDuplicatePage) {
		t.Fatalf("conflicting duplicate: err = %v, want ErrDuplicatePage", err)
	}
	if err != nil && !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("error %q does not quote the offending URL", err)
	}
}

func TestOfflinePhase(t *testing.T) {
	ds := dataset(t)
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, MapFetcher(ds.Pages), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := off.Stats
	if st.HistoricalOffers != len(ds.HistoricalOffers) {
		t.Errorf("HistoricalOffers = %d", st.HistoricalOffers)
	}
	if st.MatchedOffers == 0 || st.MatchedOffers > st.HistoricalOffers {
		t.Errorf("MatchedOffers = %d of %d", st.MatchedOffers, st.HistoricalOffers)
	}
	if st.Candidates == 0 || st.TrainingSize == 0 || st.TrainingPositives == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.TrainingPositives >= st.TrainingSize {
		t.Errorf("positives %d should be < training size %d", st.TrainingPositives, st.TrainingSize)
	}
	if st.Correspondences == 0 {
		t.Error("no correspondences selected")
	}

	// Quality gate: selected non-identity correspondences should be
	// mostly correct against ground truth.
	correct, wrong := 0, 0
	for _, sc := range off.Correspondences.All() {
		if sc.NameIdentity() {
			continue
		}
		if ds.Truth.IsCorrespondence(sc.Key, sc.CatalogAttr, sc.MerchantAttr) {
			correct++
		} else {
			wrong++
		}
	}
	if correct == 0 {
		t.Fatal("no correct renamed correspondences found")
	}
	prec := float64(correct) / float64(correct+wrong)
	if prec < 0.7 {
		t.Errorf("non-identity correspondence precision = %.3f (%d/%d)", prec, correct, correct+wrong)
	}
}

func TestOfflineNoMatchesError(t *testing.T) {
	ds := dataset(t)
	// Strip the titles so title matching fails, and the UPC pairs so
	// identifier matching fails too.
	stripped := make([]offer.Offer, len(ds.HistoricalOffers))
	for i, o := range ds.HistoricalOffers {
		c := o.Clone()
		c.Title = ""
		c.Spec = nil
		stripped[i] = c
	}
	// Without pages there are no specs at all -> no matches.
	_, err := RunOffline(context.Background(), ds.Catalog, stripped, nil, Config{})
	if err == nil {
		t.Fatal("expected error with no matches")
	}
}

func TestEndToEndSynthesis(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunRuntime(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Products) == 0 {
		t.Fatal("no products synthesized")
	}
	// Clusters should correspond ~1:1 to missing products (§4). A small
	// amount of fragmentation is inherent to key-based clustering: when
	// one merchant's offers expose only the MPN and another's only the
	// UPC, no shared offer bridges the two keys.
	seen := make(map[string]bool)
	resolved, fragmented := 0, 0
	for _, p := range run.Products {
		pid := ds.Truth.ProductByKey[p.Key]
		if pid == "" {
			continue
		}
		resolved++
		if seen[pid] {
			fragmented++
		}
		seen[pid] = true
		if !ds.Truth.Missing[pid] {
			t.Errorf("synthesized product %s already in catalog", pid)
		}
	}
	if fragmented > len(seen)/10 {
		t.Errorf("fragmentation too high: %d duplicate clusters over %d products", fragmented, len(seen))
	}
	if resolved < len(run.Products)*9/10 {
		t.Errorf("only %d/%d products resolve to universe keys", resolved, len(run.Products))
	}
	// Spot-check quality: most attribute pairs should match truth.
	pairs, correctPairs := 0, 0
	for _, p := range run.Products {
		pid := ds.Truth.ProductByKey[p.Key]
		if pid == "" {
			continue
		}
		trueProd := ds.Universe[pid]
		for _, av := range p.Spec {
			pairs++
			if tv, ok := trueProd.Spec.Get(av.Name); ok && tokensOverlap(av.Value, tv) {
				correctPairs++
			}
		}
	}
	if pairs == 0 || float64(correctPairs)/float64(pairs) < 0.8 {
		t.Errorf("attribute agreement = %d/%d", correctPairs, pairs)
	}
	if run.Reconcile.PairsDropped == 0 {
		t.Error("expected noise pairs to be dropped by reconciliation")
	}
}

func tokensOverlap(a, b string) bool {
	am := make(map[string]bool)
	for _, t := range tokenize(a) {
		am[t] = true
	}
	for _, t := range tokenize(b) {
		if am[t] {
			return true
		}
	}
	return false
}

func tokenize(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			cur += string(r)
		} else if cur != "" {
			out = append(out, cur)
			cur = ""
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func TestRuntimeExcludesMatchedIncoming(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Feed historical offers (which match catalog products) through the
	// runtime: they should be excluded.
	run, err := RunRuntime(context.Background(), ds.Catalog, off, ds.HistoricalOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if run.ExcludedMatched == 0 {
		t.Error("no incoming offers excluded despite matching catalog products")
	}
}

// TestPrepareIncomingComposesToRunRuntime pins the stage refactor: the
// incremental front half plus global clustering plus fusion must equal
// the whole-run RunRuntime exactly — and the front half of a subset of
// offers is the corresponding subset of the whole-run front half, the
// property the streaming pipeline is built on.
func TestPrepareIncomingComposesToRunRuntime(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunRuntime(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareIncoming(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Reconcile != run.Reconcile || prep.ExcludedMatched != run.ExcludedMatched {
		t.Errorf("front-half stats %+v/%d, want %+v/%d",
			prep.Reconcile, prep.ExcludedMatched, run.Reconcile, run.ExcludedMatched)
	}
	clusters, skipped := cluster.Group(prep.Kept, cluster.Options{})
	if len(skipped) != len(run.SkippedNoKey) {
		t.Errorf("skipped %d, want %d", len(skipped), len(run.SkippedNoKey))
	}
	products, err := FuseClusters(context.Background(), clusters, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(products) != len(run.Products) {
		t.Fatalf("%d products, want %d", len(products), len(run.Products))
	}
	for i := range products {
		got := products[i].CategoryID + "/" + products[i].Key + "/" + products[i].Spec.String()
		want := run.Products[i].CategoryID + "/" + run.Products[i].Key + "/" + run.Products[i].Spec.String()
		if got != want {
			t.Errorf("product %d: %s, want %s", i, got, want)
		}
	}

	// Subset property: preparing half the offers yields the matching
	// subset of the whole run's kept offers.
	half := ds.IncomingOffers[:len(ds.IncomingOffers)/2]
	sub, err := PrepareIncoming(context.Background(), ds.Catalog, off, half, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wholeKept := make(map[string]string, len(prep.Kept))
	for _, o := range prep.Kept {
		wholeKept[o.ID] = o.Spec.String()
	}
	for _, o := range sub.Kept {
		if spec, ok := wholeKept[o.ID]; !ok || spec != o.Spec.String() {
			t.Errorf("subset kept offer %s disagrees with whole run", o.ID)
		}
	}
}

// TestPrepareIncomingBoundedRegistry pins one registry lookup per
// category per front-half run: with a registry that holds a single
// entry, offers whose categories interleave must not evict each other's
// title index into a rebuild per offer.
func TestPrepareIncomingBoundedRegistry(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	reg := match.NewRegistryWithOptions(match.RegistryOptions{MaxEntries: 1})
	cfg := Config{Workers: 4, Registry: reg}
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Deal the offers round-robin across their categories, so consecutive
	// offers never share one.
	byCat := map[string][]offer.Offer{}
	var cats []string
	for _, o := range ds.IncomingOffers {
		if byCat[o.CategoryID] == nil {
			cats = append(cats, o.CategoryID)
		}
		byCat[o.CategoryID] = append(byCat[o.CategoryID], o)
	}
	if len(cats) < 2 {
		t.Fatalf("%d categories; the test needs them to interleave", len(cats))
	}
	var wave []offer.Offer
	for i := 0; len(wave) < len(ds.IncomingOffers); i++ {
		for _, c := range cats {
			if i < len(byCat[c]) {
				wave = append(wave, byCat[c][i])
			}
		}
	}

	before := reg.Builds()
	prep, err := PrepareIncoming(context.Background(), ds.Catalog, off, wave, fetcher, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if builds := reg.Builds() - before; builds > int64(len(cats)) {
		t.Errorf("%d index builds over %d categories", builds, len(cats))
	}
	want, err := PrepareIncoming(context.Background(), ds.Catalog, off, wave, fetcher, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if prep.ExcludedMatched != want.ExcludedMatched || len(prep.Kept) != len(want.Kept) {
		t.Errorf("bounded registry: %d excluded, %d kept; want %d, %d",
			prep.ExcludedMatched, len(prep.Kept), want.ExcludedMatched, len(want.Kept))
	}
}

// TestStrictPages pins the per-batch failure path: with StrictPages a
// missing landing page fails the run deterministically; without, the
// offer keeps its feed spec and the run succeeds.
func TestStrictPages(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := ds.IncomingOffers[0].Clone()
	bad.ID = "bad"
	bad.URL = "missing://nowhere"
	incoming := append([]offer.Offer{bad}, ds.IncomingOffers[1:]...)

	lenient, err := RunRuntime(context.Background(), ds.Catalog, off, incoming, fetcher, Config{})
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	// Lenient degradation is accounted, not silent: the bad offer shows
	// up in the run's fetch report.
	if got := lenient.Fetch.FeedOnly; len(got) != 1 || got[0] != "bad" {
		t.Errorf("lenient FeedOnly = %v, want [bad]", got)
	}
	if lenient.Fetch.GaveUp != 1 {
		t.Errorf("lenient GaveUp = %d, want 1", lenient.Fetch.GaveUp)
	}
	_, err = RunRuntime(context.Background(), ds.Catalog, off, incoming, fetcher, Config{StrictPages: true})
	if err == nil {
		t.Fatal("strict run tolerated a missing page")
	}
	if !errors.Is(err, ErrPageNotFound) {
		t.Errorf("err = %v, want wrapped ErrPageNotFound", err)
	}
	// The error names the URL it could not fetch.
	if !strings.Contains(err.Error(), `"missing://nowhere"`) {
		t.Errorf("strict error %q does not name the URL", err)
	}

	// The flag applies symmetrically to the offline phase: a crawl gap
	// in the historical corpus is tolerated (and accounted) by default
	// and fails Learn under StrictPages.
	badHist := ds.HistoricalOffers[0].Clone()
	badHist.ID = "bad-hist"
	badHist.URL = "missing://nowhere"
	historical := append([]offer.Offer{badHist}, ds.HistoricalOffers[1:]...)
	offBad, err := RunOffline(context.Background(), ds.Catalog, historical, fetcher, Config{})
	if err != nil {
		t.Fatalf("lenient offline phase failed: %v", err)
	}
	if got := offBad.Fetch.FeedOnly; len(got) != 1 || got[0] != "bad-hist" {
		t.Errorf("offline FeedOnly = %v, want [bad-hist]", got)
	}
	if _, err := RunOffline(context.Background(), ds.Catalog, historical, fetcher, Config{StrictPages: true}); err == nil {
		t.Error("offline phase tolerated a missing page under StrictPages")
	}

	// With two crawl gaps at positions i < j, the strict offline error is
	// the first in offer input order, whatever the worker count.
	i, j := 3, len(ds.HistoricalOffers)-5
	twoGaps := append([]offer.Offer(nil), ds.HistoricalOffers...)
	for _, g := range []struct {
		pos int
		url string
	}{{i, "missing://first"}, {j, "missing://second"}} {
		o := twoGaps[g.pos].Clone()
		o.URL = g.url
		twoGaps[g.pos] = o
	}
	for _, w := range []int{1, 4, 8} {
		_, err := RunOffline(context.Background(), ds.Catalog, twoGaps, fetcher, Config{StrictPages: true, Workers: w})
		if err == nil {
			t.Fatalf("Workers=%d: offline phase tolerated two missing pages under StrictPages", w)
		}
		if !strings.Contains(err.Error(), `"missing://first"`) || strings.Contains(err.Error(), "missing://second") {
			t.Errorf("Workers=%d: strict offline error %q, want offer %d's URL", w, err, i)
		}
	}
}

func TestRuntimeRequiresOffline(t *testing.T) {
	ds := dataset(t)
	if _, err := RunRuntime(context.Background(), ds.Catalog, nil, ds.IncomingOffers, nil, Config{}); err == nil {
		t.Fatal("expected error without offline result")
	}
}

// TestPipelineWorkerCountInvariance asserts that the per-offer front half
// produces identical offline matches and identical synthesized products
// for every worker count.
func TestPipelineWorkerCountInvariance(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)

	type snapshot struct {
		matches  []match.Match
		products []string
		stats    OfflineStats
	}
	run := func(workers int) snapshot {
		cfg := Config{Workers: workers}
		off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RunRuntime(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, cfg)
		if err != nil {
			t.Fatal(err)
		}
		products := make([]string, len(rt.Products))
		for i, p := range rt.Products {
			products[i] = p.CategoryID + "/" + p.Key + "/" + p.Spec.String()
		}
		return snapshot{matches: off.Matches.All(), products: products, stats: off.Stats}
	}

	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.stats != base.stats {
			t.Errorf("Workers=%d: stats %+v, want %+v", w, got.stats, base.stats)
		}
		if len(got.matches) != len(base.matches) {
			t.Fatalf("Workers=%d: %d matches, want %d", w, len(got.matches), len(base.matches))
		}
		for i := range base.matches {
			if got.matches[i] != base.matches[i] {
				t.Fatalf("Workers=%d: match %d = %+v, want %+v", w, i, got.matches[i], base.matches[i])
			}
		}
		if len(got.products) != len(base.products) {
			t.Fatalf("Workers=%d: %d products, want %d", w, len(got.products), len(base.products))
		}
		for i := range base.products {
			if got.products[i] != base.products[i] {
				t.Fatalf("Workers=%d: product %d differs:\n  got  %s\n  want %s", w, i, got.products[i], base.products[i])
			}
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	ds := dataset(t)
	fetcher := MapFetcher(ds.Pages)
	run := func() ([]string, int) {
		off, err := RunOffline(context.Background(), ds.Catalog, ds.HistoricalOffers, fetcher, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RunRuntime(context.Background(), ds.Catalog, off, ds.IncomingOffers, fetcher, Config{})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(rt.Products))
		for i, p := range rt.Products {
			keys[i] = p.CategoryID + "/" + p.Key
		}
		return keys, rt.Reconcile.PairsMapped
	}
	k1, m1 := run()
	k2, m2 := run()
	if m1 != m2 || len(k1) != len(k2) {
		t.Fatalf("runs differ: %d/%d products, %d/%d mapped", len(k1), len(k2), m1, m2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("product order differs at %d: %s vs %s", i, k1[i], k2[i])
		}
	}
}
