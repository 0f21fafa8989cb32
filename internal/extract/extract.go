// Package extract implements the Web-page Attribute Extraction component of
// the paper (§4): it parses the DOM tree of a merchant landing page, finds
// all tables, and harvests attribute-value pairs from rows with exactly two
// columns, treating the first column as the attribute name and the second as
// the value.
//
// As the paper notes, this deliberately simple extractor makes mistakes on
// pages with exotic table structure; the Schema Reconciliation component is
// responsible for filtering that noise, because incorrectly extracted "attributes"
// develop value distributions that match no catalog attribute. A bullet-list
// fallback (the paper's acknowledged coverage gap, revisited as future work)
// is provided behind an option.
package extract

import (
	"strings"

	"prodsynth/internal/catalog"
	"prodsynth/internal/htmlx"
)

// Options configures the extractor.
type Options struct {
	// IncludeDefinitionLists also harvests <dl><dt>name<dd>value lists.
	IncludeDefinitionLists bool
	// IncludeBulletLists also harvests <li>Name: Value</li> items — the
	// extension the paper lists as future work. Off by default to match
	// the paper's evaluated configuration.
	IncludeBulletLists bool
	// MaxPairs caps the number of extracted pairs per page (0 = no cap);
	// a guard against adversarial or pathological pages.
	MaxPairs int
	// MaxValueLen drops pairs whose value is longer than this many bytes
	// (0 = no limit). Long cells are usually prose, not specs.
	MaxValueLen int
}

// DefaultOptions matches the paper's evaluated extractor: tables only.
var DefaultOptions = Options{MaxValueLen: 300}

// FromHTML parses the page and extracts attribute-value pairs using the
// default options.
func FromHTML(page string) catalog.Spec {
	return WithOptions(page, DefaultOptions)
}

// WithOptions parses the page and extracts attribute-value pairs.
func WithOptions(page string, opts Options) catalog.Spec {
	root := htmlx.Parse(page)
	return FromDOM(root, opts)
}

// FromDOM extracts attribute-value pairs from an already-parsed DOM.
func FromDOM(root *htmlx.Node, opts Options) catalog.Spec {
	x := extractor{opts: opts}
	// each calls fn on every element with the tag, nested ones included,
	// in document order.
	each := func(tag string, fn func(*htmlx.Node)) {
		root.Walk(func(n *htmlx.Node) bool {
			if n.Type == htmlx.ElementNode && n.Tag == tag {
				fn(n)
			}
			return true
		})
	}
	each("table", x.table)
	if opts.IncludeDefinitionLists {
		each("dl", x.definitionList)
	}
	if opts.IncludeBulletLists {
		each("li", x.bullet)
	}
	return x.spec
}

// seenMapAt is the spec length from which extractor.add looks names up in
// a map; below it, a scan of the spec is cheaper than building one.
const seenMapAt = 32

// extractor accumulates one page's pairs.
type extractor struct {
	opts Options
	spec catalog.Spec
	seen map[string]bool // every name in spec, once len(spec) >= seenMapAt
}

func (x *extractor) add(name, value string) {
	name = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(name), ":"))
	value = strings.TrimSpace(value)
	if name == "" || value == "" {
		return
	}
	if x.opts.MaxValueLen > 0 && len(value) > x.opts.MaxValueLen {
		return
	}
	if x.opts.MaxPairs > 0 && len(x.spec) >= x.opts.MaxPairs {
		return
	}
	// First occurrence wins; spec tables occasionally repeat rows.
	if x.has(name) {
		return
	}
	if x.spec == nil {
		x.spec = make(catalog.Spec, 0, 8) // most spec tables fit
	}
	x.spec = append(x.spec, catalog.AttributeValue{Name: name, Value: value})
	if x.seen != nil {
		x.seen[name] = true
	} else if len(x.spec) >= seenMapAt {
		x.seen = make(map[string]bool, 2*len(x.spec))
		for _, av := range x.spec {
			x.seen[av.Name] = true
		}
	}
}

func (x *extractor) has(name string) bool {
	if x.seen != nil {
		return x.seen[name]
	}
	for _, av := range x.spec {
		if av.Name == name {
			return true
		}
	}
	return false
}

// table harvests one table element. Per the paper, only rows with exactly
// two cells contribute: first cell is the name, second the value. Rows are
// found at any nesting depth below the table (tbody/thead are common), but
// rows of nested tables are handled by their own visit, so they are
// skipped here.
func (x *extractor) table(table *htmlx.Node) {
	table.Walk(func(n *htmlx.Node) bool {
		if n != table && n.Type == htmlx.ElementNode && n.Tag == "table" {
			return false // nested table: visited separately
		}
		if n.Type == htmlx.ElementNode && n.Tag == "tr" {
			x.row(n)
			return false
		}
		return true
	})
}

// row adds the pair of a row with exactly two td/th cells.
func (x *extractor) row(tr *htmlx.Node) {
	var cells [2]*htmlx.Node
	n := 0
	for _, c := range tr.Children {
		if c.Type == htmlx.ElementNode && (c.Tag == "td" || c.Tag == "th") {
			if n < len(cells) {
				cells[n] = c
			}
			n++
		}
	}
	if n == 2 {
		x.add(cells[0].InnerText(), cells[1].InnerText())
	}
}

func (x *extractor) definitionList(dl *htmlx.Node) {
	var pendingName string
	for _, c := range dl.Children {
		if c.Type != htmlx.ElementNode {
			continue
		}
		switch c.Tag {
		case "dt":
			pendingName = c.InnerText()
		case "dd":
			if pendingName != "" {
				x.add(pendingName, c.InnerText())
				pendingName = ""
			}
		}
	}
}

// bullet parses "Name: Value" items. Only the first colon splits; a value
// may itself contain colons ("Interface: SATA: 300" keeps "SATA: 300").
func (x *extractor) bullet(li *htmlx.Node) {
	text := li.InnerText()
	colon := strings.IndexByte(text, ':')
	if colon <= 0 || colon == len(text)-1 {
		return
	}
	name := text[:colon]
	// Reject bullets whose "name" looks like prose (too many tokens).
	if len(strings.Fields(name)) > 6 {
		return
	}
	x.add(name, text[colon+1:])
}
