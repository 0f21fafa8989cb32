package htmlx

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prodsynth/internal/synth"
)

// checkAgainstReference parses page with Parse and with refParse, and
// lexes it with Tokenize and refTokenize, and fails t on the first
// difference: token stream, tag, text, attributes, child order, Parent
// pointers, or any element's InnerText.
func checkAgainstReference(t *testing.T, page string) {
	t.Helper()
	got, want := Tokenize(page), refTokenize(page)
	if len(got) != len(want) {
		t.Fatalf("Tokenize: %d tokens, reference %d\npage %q", len(got), len(want), page)
	}
	for i := range got {
		if msg := diffToken(got[i], want[i]); msg != "" {
			t.Fatalf("Tokenize token %d: %s\npage %q", i, msg, page)
		}
	}
	if msg := diffTree(Parse(page), refParse(page), nil, "#root"); msg != "" {
		t.Fatalf("Parse: %s\npage %q", msg, page)
	}
}

func diffToken(a, b Token) string {
	if a.Type != b.Type || a.Data != b.Data {
		return fmt.Sprintf("got {%d %q}, reference {%d %q}", a.Type, a.Data, b.Type, b.Data)
	}
	return diffAttrs(a.Attrs, b.Attrs)
}

func diffAttrs(a, b []Attr) string {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return fmt.Sprintf("attrs %q, reference %q", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("attr %d: %q, reference %q", i, a[i], b[i])
		}
	}
	return ""
}

// diffTree compares got with want below path; parent is got's expected
// Parent.
func diffTree(got, want, parent *Node, path string) string {
	if got.Type != want.Type || got.Tag != want.Tag || got.Text != want.Text {
		return fmt.Sprintf("%s: node {%d %q %q}, reference {%d %q %q}",
			path, got.Type, got.Tag, got.Text, want.Type, want.Tag, want.Text)
	}
	if got.Parent != parent {
		return path + ": wrong Parent pointer"
	}
	if msg := diffAttrs(got.Attrs, want.Attrs); msg != "" {
		return path + ": " + msg
	}
	if got.Type == ElementNode {
		if g, w := got.InnerText(), refInnerText(want); g != w {
			return fmt.Sprintf("%s: InnerText %q, reference %q", path, g, w)
		}
	}
	if len(got.Children) != len(want.Children) || (got.Children == nil) != (want.Children == nil) {
		return fmt.Sprintf("%s: %d children, reference %d", path, len(got.Children), len(want.Children))
	}
	if cap(got.Children) != len(got.Children) {
		return fmt.Sprintf("%s: Children cap %d > len %d", path, cap(got.Children), len(got.Children))
	}
	for i := range got.Children {
		p := fmt.Sprintf("%s/%d:%s", path, i, got.Children[i].Tag)
		if msg := diffTree(got.Children[i], want.Children[i], got, p); msg != "" {
			return msg
		}
	}
	return ""
}

// FuzzParse holds Parse, Tokenize and InnerText to the reference copy in
// reference_test.go on arbitrary input. Its seed pages are under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, page string) {
		checkAgainstReference(t, page)
	})
}

// TestParseMatchesReferenceOnMarketplace runs the oracle over every page of
// a small generated marketplace, bullet-list merchants included.
func TestParseMatchesReferenceOnMarketplace(t *testing.T) {
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
	ds := synth.Generate(synth.Config{
		Seed:                11,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 12,
		Merchants:           12,
		PBulletPage:         0.35,
	})
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

// TestParseLargePageMatchesReference covers a page with more nodes than
// Parse reserves up front, so the slab grows while the tree is built.
func TestParseLargePageMatchesReference(t *testing.T) {
	var b strings.Builder
	b.WriteString("<table>")
	for i := 0; b.Len() < 16*maxSlabGuess; i++ {
		fmt.Fprintf(&b, "<tr><td>Name %d<td>Value %d", i, i)
	}
	b.WriteString("</table>")
	checkAgainstReference(t, b.String())
}
