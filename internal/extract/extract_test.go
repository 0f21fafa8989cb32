package extract

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"prodsynth/internal/catalog"
)

const specPage = `
<html><head><title>Hitachi Deskstar</title>
<script>var tracking = "<table><tr><td>fake</td><td>row</td></tr></table>";</script>
</head>
<body>
<div class="nav"><ul><li><a href="/">Home</a></li><li><a href="/hd">Hard Drives</a></li></ul></div>
<h1>Hitachi Deskstar T7K500</h1>
<table class="specs">
  <tbody>
  <tr><td>Brand</td><td>Hitachi</td></tr>
  <tr><td>Capacity:</td><td>500 GB</td></tr>
  <tr><td>RPM</td><td>7200 rpm</td></tr>
  <tr><th>Interface</th><td>Serial ATA 300</td></tr>
  <tr><td colspan="2">Free shipping on orders over $50!</td></tr>
  <tr><td>Buy</td><td>Now</td><td>Extra cell makes this a 3-col row</td></tr>
  </tbody>
</table>
<table class="pricing">
  <tr><td>Price</td><td>$67.00</td></tr>
</table>
</body></html>`

func TestFromHTMLTables(t *testing.T) {
	spec := FromHTML(specPage)
	want := map[string]string{
		"Brand":     "Hitachi",
		"Capacity":  "500 GB",
		"RPM":       "7200 rpm",
		"Interface": "Serial ATA 300",
		"Price":     "$67.00",
	}
	if len(spec) != len(want) {
		t.Fatalf("extracted %d pairs: %v", len(spec), spec)
	}
	for name, val := range want {
		got, ok := spec.Get(name)
		if !ok || got != val {
			t.Errorf("%s = %q, %v; want %q", name, got, ok, val)
		}
	}
}

func TestExtractSkipsScriptContent(t *testing.T) {
	spec := FromHTML(specPage)
	if _, ok := spec.Get("fake"); ok {
		t.Error("extracted a pair from script raw text")
	}
}

func TestExtractTrimsTrailingColon(t *testing.T) {
	spec := FromHTML(`<table><tr><td>Capacity:</td><td>500</td></tr></table>`)
	if v, ok := spec.Get("Capacity"); !ok || v != "500" {
		t.Errorf("spec = %v", spec)
	}
}

func TestExtractFirstOccurrenceWins(t *testing.T) {
	spec := FromHTML(`<table>
		<tr><td>Brand</td><td>First</td></tr>
		<tr><td>Brand</td><td>Second</td></tr>
	</table>`)
	if v, _ := spec.Get("Brand"); v != "First" {
		t.Errorf("Brand = %q", v)
	}
	if len(spec) != 1 {
		t.Errorf("len = %d", len(spec))
	}
}

func TestExtractNestedTables(t *testing.T) {
	// Outer layout table with a nested spec table: the outer row has one
	// cell so it contributes nothing; the inner rows contribute.
	page := `<table><tr><td>
		<table>
			<tr><td>Brand</td><td>Seagate</td></tr>
			<tr><td>Model</td><td>Barracuda</td></tr>
		</table>
	</td></tr></table>`
	spec := FromHTML(page)
	if len(spec) != 2 {
		t.Fatalf("spec = %v", spec)
	}
	if v, _ := spec.Get("Model"); v != "Barracuda" {
		t.Errorf("Model = %q", v)
	}
}

func TestExtractUnclosedCells(t *testing.T) {
	page := `<table>
		<tr><td>Brand<td>Seagate
		<tr><td>Capacity<td>750 GB
	</table>`
	spec := FromHTML(page)
	if v, _ := spec.Get("Capacity"); v != "750 GB" {
		t.Errorf("spec = %v", spec)
	}
}

func TestExtractEmptyNameOrValueDropped(t *testing.T) {
	page := `<table>
		<tr><td></td><td>value</td></tr>
		<tr><td>Name</td><td>  </td></tr>
		<tr><td>Good</td><td>pair</td></tr>
	</table>`
	spec := FromHTML(page)
	if len(spec) != 1 {
		t.Errorf("spec = %v", spec)
	}
}

func TestExtractMaxValueLen(t *testing.T) {
	long := strings.Repeat("x ", 300)
	page := `<table><tr><td>Blurb</td><td>` + long + `</td></tr>
	<tr><td>Ok</td><td>short</td></tr></table>`
	spec := WithOptions(page, Options{MaxValueLen: 100})
	if _, ok := spec.Get("Blurb"); ok {
		t.Error("overlong value kept")
	}
	if _, ok := spec.Get("Ok"); !ok {
		t.Error("short value lost")
	}
}

func TestExtractMaxPairs(t *testing.T) {
	page := `<table>
		<tr><td>A</td><td>1</td></tr>
		<tr><td>B</td><td>2</td></tr>
		<tr><td>C</td><td>3</td></tr>
	</table>`
	spec := WithOptions(page, Options{MaxPairs: 2})
	if len(spec) != 2 {
		t.Errorf("spec = %v", spec)
	}
}

func TestExtractDefinitionList(t *testing.T) {
	page := `<dl><dt>Brand</dt><dd>Canon</dd><dt>Zoom</dt><dd>3x</dd></dl>`
	if got := FromHTML(page); len(got) != 0 {
		t.Errorf("default options should ignore <dl>: %v", got)
	}
	spec := WithOptions(page, Options{IncludeDefinitionLists: true})
	if v, _ := spec.Get("Zoom"); v != "3x" {
		t.Errorf("spec = %v", spec)
	}
}

func TestExtractBulletList(t *testing.T) {
	page := `<ul>
		<li>Resolution: 12 MP</li>
		<li>Optical Zoom: 3x</li>
		<li>Ships within 24 hours from our warehouse in beautiful downtown Omaha: call now</li>
		<li>No colon here</li>
	</ul>`
	if got := FromHTML(page); len(got) != 0 {
		t.Errorf("default options should ignore bullets: %v", got)
	}
	spec := WithOptions(page, Options{IncludeBulletLists: true})
	if v, _ := spec.Get("Resolution"); v != "12 MP" {
		t.Errorf("spec = %v", spec)
	}
	if v, _ := spec.Get("Optical Zoom"); v != "3x" {
		t.Errorf("spec = %v", spec)
	}
	if len(spec) != 2 {
		t.Errorf("prose bullet not rejected: %v", spec)
	}
}

func TestExtractNeverPanics(t *testing.T) {
	f := func(s string) bool {
		WithOptions(s, Options{IncludeBulletLists: true, IncludeDefinitionLists: true})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtractRealisticNoisyPage(t *testing.T) {
	// A page with marketing tables interleaved: the extractor harvests
	// noise too ("Availability"), which schema reconciliation must later
	// filter — here we only assert extraction shape.
	page := `
	<table><tr><td>In Stock</td><td>Yes</td></tr></table>
	<table>
	<tr><td>Mfr. Part #</td><td>HDT725050VLA360</td></tr>
	<tr><td>Cache</td><td>16 MB</td></tr>
	</table>`
	spec := FromHTML(page)
	if v, _ := spec.Get("Mfr. Part #"); v != "HDT725050VLA360" {
		t.Errorf("spec = %v", spec)
	}
	if len(spec) != 3 {
		t.Errorf("expected noisy pair kept for downstream filtering: %v", spec)
	}
}

// TestExtractTraps pins WithOptions where an event-driven extractor can
// drift from the tree walk it replaced: pair order across nested tables,
// definition lists and bullets; which rows and cells count; and which text
// a cell takes. Each page also goes through the reference oracle.
func TestExtractTraps(t *testing.T) {
	all := Options{IncludeDefinitionLists: true, IncludeBulletLists: true}
	nested := `<table><tr><td>A</td><td><table><tr><td>B</td><td>2</td></tr></table></td></tr>` +
		`<tr><td>C</td><td>3</td></tr></table>`
	cases := []struct {
		name string
		page string
		opts Options
		want catalog.Spec
	}{
		{"rows after a nested table", nested, Options{},
			catalog.Spec{{Name: "A", Value: "B 2"}, {Name: "C", Value: "3"}, {Name: "B", Value: "2"}}},
		{"tr under a div in a cell",
			`<table><tr><td>Outer</td><td><div><tr><td>Inner</td><td>x</td></tr></div></td></tr></table>`, Options{},
			catalog.Spec{{Name: "Outer", Value: "Inner x"}}},
		{"self-closing td is an empty cell",
			`<table><tr><td/>Brand<td>Acme</tr><tr><td>Color<td/><td>Red</tr><tr><td>Size<td>L</tr></table>`, Options{},
			catalog.Spec{{Name: "Size", Value: "L"}}},
		{"script and style text in a cell",
			`<table><tr><td>Brand<script>var x = "<td>";</script></td><td>Acme<style>.a{}</style> Inc</td></tr></table>`, Options{},
			catalog.Spec{{Name: "Brand", Value: "Acme Inc"}}},
		{"MaxPairs across slots",
			`<ul><li>Zoom: 3x</li></ul><dl><dt>Weight<dd>2 kg</dl><dl><dt>A<dd>dup</dl>` + nested,
			Options{IncludeDefinitionLists: true, IncludeBulletLists: true, MaxPairs: 4},
			catalog.Spec{{Name: "A", Value: "B 2"}, {Name: "C", Value: "3"}, {Name: "B", Value: "2"}, {Name: "Weight", Value: "2 kg"}}},
		{"nested lists keep open order",
			`<dl><dt>Outer<dd><dl><dt>Inner<dd>1</dl></dl><ul><li>P: <ul><li>Q: 2</li></ul></li></ul>`, all,
			catalog.Spec{{Name: "Outer", Value: "Inner 1"}, {Name: "Inner", Value: "1"}, {Name: "P", Value: "Q: 2"}, {Name: "Q", Value: "2"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if msg := diffSpec(WithOptions(c.page, c.opts), c.want); msg != "" {
				t.Error(msg)
			}
			checkAgainstReference(t, c.page)
		})
	}
}

// TestExtractDoesNotAliasPage: spec values outlive the page in the Model
// and in stream memory, so no name or value may point into the page.
func TestExtractDoesNotAliasPage(t *testing.T) {
	pages := append(marketplacePages()[:20], specPage)
	for _, page := range pages {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(page)))
		hi := lo + uintptr(len(page))
		for _, opts := range oracleOptions {
			for _, av := range WithOptions(page, opts) {
				for _, s := range []string{av.Name, av.Value} {
					if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
						t.Fatalf("%q aliases the page", s)
					}
				}
			}
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(specPage)))
	for i := 0; i < b.N; i++ {
		FromHTML(specPage)
	}
}
