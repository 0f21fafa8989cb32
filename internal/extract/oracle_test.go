package extract

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prodsynth/internal/catalog"
	"prodsynth/internal/htmlx"
	"prodsynth/internal/synth"
)

// oracleOptions are the option sets the oracle compares under: the paper's
// configuration, every extractor on with a small pair cap, and every
// extractor on with no caps (long specs reach the seen-map path).
var oracleOptions = []Options{
	DefaultOptions,
	{IncludeDefinitionLists: true, IncludeBulletLists: true, MaxPairs: 3, MaxValueLen: 300},
	{IncludeDefinitionLists: true, IncludeBulletLists: true},
}

// checkAgainstReference holds WithOptions on the page, and FromDOM on its
// tree, to the reference copy in reference_test.go on the same tree under
// every oracle option set, and fails t on the first difference.
func checkAgainstReference(t *testing.T, page string) {
	t.Helper()
	root := htmlx.Parse(page)
	for _, opts := range oracleOptions {
		want := refFromDOM(root, opts)
		if msg := diffSpec(WithOptions(page, opts), want); msg != "" {
			t.Fatalf("WithOptions, options %+v: %s\npage %q", opts, msg, page)
		}
		if msg := diffSpec(FromDOM(root, opts), want); msg != "" {
			t.Fatalf("FromDOM, options %+v: %s\npage %q", opts, msg, page)
		}
	}
}

func diffSpec(got, want catalog.Spec) string {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("spec %v, reference %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("pair %d: %v, reference %v", i, got[i], want[i])
		}
	}
	return ""
}

// FuzzExtract holds WithOptions and FromDOM to the reference copy on
// arbitrary pages. Its seed pages are under testdata/fuzz/FuzzExtract, plus
// the ones added here: a spec long enough to reach the seen map, and
// definition and bullet lists.
func FuzzExtract(f *testing.F) {
	var long strings.Builder
	long.WriteString("<table>")
	for i := 0; i < seenMapAt+8; i++ {
		fmt.Fprintf(&long, "<tr><td>Name %d</td><td>v%d</td></tr>", i%(seenMapAt+4), i)
	}
	long.WriteString("</table>")
	for _, page := range []string{
		specPage,
		long.String(),
		`<table><tr><td><table><tr><td>Brand</td><td>Acme</td></tr></table></td></tr></table>`,
		`<dl><dt>Brand<dd>Canon<dt>Zoom<dd>3x</dl><ul><li>Resolution: 12 MP<li>a b c d e f g: h</ul>`,
	} {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, page string) {
		checkAgainstReference(t, page)
	})
}

// TestExtractMatchesReferenceOnMarketplace runs the oracle over every page
// of a small generated marketplace, bullet-list merchants included.
func TestExtractMatchesReferenceOnMarketplace(t *testing.T) {
	pages, bullets := marketplacePages(), 0
	for _, page := range pages {
		if strings.Contains(page, "<ul class=spec>") {
			bullets++
		}
		checkAgainstReference(t, page)
	}
	if bullets == 0 || bullets == len(pages) {
		t.Fatalf("%d of %d pages are bullet-list pages; want some of each", bullets, len(pages))
	}
}

// marketplacePages returns the landing pages of a small marketplace in
// which about a third of the merchants render bullet-list pages, sorted
// by URL.
func marketplacePages() []string {
	return pagesOf(synth.Generate(synth.Config{
		Seed:                11,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 12,
		Merchants:           12,
		PBulletPage:         0.35,
	}))
}

// pagesOf returns a dataset's landing pages sorted by URL.
func pagesOf(ds *synth.Dataset) []string {
	urls := make([]string, 0, len(ds.Pages))
	for u := range ds.Pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	pages := make([]string, len(urls))
	for i, u := range urls {
		pages[i] = ds.Pages[u]
	}
	return pages
}

// TestExtractScriptCloserNonASCII: a Latin-1 script body before the spec
// table used to hide the whole table, because the script closer was found
// at an offset into a strings.ToLower copy of the page, which is longer
// than the page when the page has invalid UTF-8.
func TestExtractScriptCloserNonASCII(t *testing.T) {
	table := `<table><tr><td>Brand</td><td>Acme</td></tr><tr><td>Color</td><td>Red</td></tr></table>`
	for _, script := range []string{
		`<script>var s = "` + strings.Repeat("\xe9", 12) + `";</script>`,
		`<script>var s = "İİİİİİ";</script>`,
		"<SCRIPT>var s = \"\u212a\u212a\u212a\u212a\";</SCRIPT>",
		`<script>var s = "ascii";</script>`,
	} {
		got := FromHTML(script + table)
		want := catalog.Spec{{Name: "Brand", Value: "Acme"}, {Name: "Color", Value: "Red"}}
		if msg := diffSpec(got, want); msg != "" {
			t.Errorf("%q: %s", script, msg)
		}
	}
}

// TestExtractAllocsPerPage is the allocation guard on one generated spec
// page. Before Parse streamed tokens into a slab this page cost 210
// allocations, and 21 to parse and walk the slab tree. Extracted straight
// from the token stream it costs 6, and the bound is that count plus a
// quarter.
func TestExtractAllocsPerPage(t *testing.T) {
	var page string
	for _, p := range marketplacePages() {
		if strings.Contains(p, "<table class=spec>") {
			page = p
			break
		}
	}
	if len(FromHTML(page)) < 5 {
		t.Fatalf("want a spec page with at least five pairs:\n%s", page)
	}
	const bound = 7
	if n := testing.AllocsPerRun(100, func() { FromHTML(page) }); n > bound {
		t.Errorf("FromHTML allocates %.0f times per page, want <= %d", n, bound)
	}
}

// BenchmarkExtractGeneratedPages parses and extracts 2 000 landing pages of
// the experiment-scale marketplace, one page per op.
func BenchmarkExtractGeneratedPages(b *testing.B) {
	pages := pagesOf(synth.Generate(synth.ExperimentConfig()))
	if len(pages) > 2000 {
		pages = pages[:2000]
	}
	size := 0
	for _, p := range pages {
		size += len(p)
	}
	b.SetBytes(int64(size / len(pages)))
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		FromHTML(pages[i%len(pages)])
	}
}
