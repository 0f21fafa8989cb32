// Package extract implements the Web-page Attribute Extraction component of
// the paper (§4): it reads a merchant landing page's elements and text as
// htmlx.Stream lexes them, with no tree, finds all tables, and harvests
// attribute-value pairs from rows with exactly two columns, treating the
// first column as the attribute name and the second as the value.
//
// As the paper notes, this deliberately simple extractor makes mistakes on
// pages with exotic table structure; the Schema Reconciliation component is
// responsible for filtering that noise, because incorrectly extracted "attributes"
// develop value distributions that match no catalog attribute. A bullet-list
// fallback (the paper's acknowledged coverage gap, revisited as future work)
// is provided behind an option.
package extract

import (
	"bytes"
	"cmp"
	"slices"
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

// FromHTML extracts attribute-value pairs from the page using the default
// options.
func FromHTML(page string) catalog.Spec {
	return WithOptions(page, DefaultOptions)
}

// WithOptions extracts attribute-value pairs from the page's elements and
// text as htmlx.Stream lexes them, with no tree.
func WithOptions(page string, opts Options) catalog.Spec {
	x := newExtractor(opts)
	htmlx.Stream(page, x)
	return x.spec()
}

// FromDOM extracts attribute-value pairs from a tree htmlx.Parse built. It
// replays the tree as the events Stream reports for the page, so it
// returns what WithOptions returns.
func FromDOM(root *htmlx.Node, opts Options) catalog.Spec {
	x := newExtractor(opts)
	replay(root, x)
	return x.spec()
}

func replay(n *htmlx.Node, h htmlx.Handler) {
	if n.Type == htmlx.TextNode {
		h.Text(n.Text)
		return
	}
	h.Open(n.Tag, n.Attrs)
	for _, c := range n.Children {
		replay(c, h)
	}
	h.Close()
}

// role is the part an open element plays in extraction.
type role uint8

const (
	other role = iota
	raw        // script or style, whose text is no element's
	table
	row  // a tr whose nearest table-or-tr ancestor is a table
	tr   // any other tr
	dl   // only with IncludeDefinitionLists
	cell // a row's td or th; this role and those below take their text
	dt   // a dl's dt
	dd   // a dl's dd
	li   // only with IncludeBulletLists
)

// frame is one open element.
type frame struct {
	role  role
	start int       // where its text starts in extractor.text
	key   uint64    // table, row: the table's pair key; dl, li: its own
	cells int       // row: its cells so far
	kv    [2][]byte // row: its first two cells' text; dl: a dt's, pending
}

// Pair groups, in output order.
const (
	tables = iota
	lists
	bullets
)

// pair is an extracted name and value, not yet trimmed or filtered.
type pair struct {
	key         uint64 // group<<32 | slot
	name, value []byte
}

// extractor takes one page's events. Each element's text is a span of one
// arena, text, from where the arena ended when the element opened: a text
// event is appended once however many open elements take it, and a cell's
// text includes a nested table's.
type extractor struct {
	opts     Options
	open     []frame
	taking   int // open elements that take their text
	text     []byte
	slots    [3]uint64 // slots handed out per group
	pairs    []pair
	unsorted bool // some pair's key is below an earlier one's

	openBuf [16]frame
	textBuf [512]byte
	pairBuf [16]pair
}

func newExtractor(opts Options) *extractor {
	x := &extractor{opts: opts}
	// open[0] stands for the page, so every element has a parent frame.
	x.open, x.text, x.pairs = append(x.openBuf[:0], frame{}), x.textBuf[:0], x.pairBuf[:0]
	return x
}

func (x *extractor) Open(tag string, _ []htmlx.Attr) {
	f := frame{start: len(x.text)}
	parent := x.open[len(x.open)-1].role
	switch {
	case tag == "table":
		f.role, f.key = table, x.slot(tables)
	case tag == "tr":
		f.role = tr
		for i := len(x.open) - 1; i > 0; i-- {
			if o := &x.open[i]; o.role == table || o.role == row || o.role == tr {
				if o.role == table {
					f.role, f.key = row, o.key
				}
				break
			}
		}
	case (tag == "td" || tag == "th") && parent == row:
		f.role = cell
	case tag == "script" || tag == "style":
		f.role = raw
	case tag == "dl" && x.opts.IncludeDefinitionLists:
		f.role, f.key = dl, x.slot(lists)
	case tag == "dt" && parent == dl:
		f.role = dt
	case tag == "dd" && parent == dl:
		f.role = dd
	case tag == "li" && x.opts.IncludeBulletLists:
		f.role, f.key = li, x.slot(bullets)
	}
	if f.role >= cell {
		x.taking++
	}
	x.open = append(x.open, f)
}

// slot returns the key of the next table, dl or li of group. Pairs are put
// in key order: by group, then by document order within it, so a nested
// table's rows follow every row of the table around it.
func (x *extractor) slot(group int) uint64 {
	x.slots[group]++
	return uint64(group)<<32 | x.slots[group]
}

func (x *extractor) Text(s string) {
	if x.taking > 0 && x.open[len(x.open)-1].role != raw {
		x.text = htmlx.AppendCollapsed(x.text, s)
	}
}

func (x *extractor) Close() {
	f := &x.open[len(x.open)-1]
	x.open = x.open[:len(x.open)-1]
	if f.role >= cell {
		x.taking--
	}
	// The span's first byte may be the space that separates it from the
	// text before it; without it, the span is the element's InnerText.
	text := bytes.TrimLeft(x.text[f.start:], " ")
	parent := &x.open[len(x.open)-1]
	switch f.role {
	case row:
		// Per the paper, only rows with exactly two cells contribute:
		// first cell is the name, second the value.
		if f.cells == 2 {
			x.add(f.key, f.kv[0], f.kv[1])
		}
	case cell:
		if parent.cells < 2 {
			parent.kv[parent.cells] = text
		}
		parent.cells++
	case dt:
		parent.kv[0] = text
	case dd:
		if len(parent.kv[0]) > 0 {
			x.add(parent.key, parent.kv[0], text)
			parent.kv[0] = nil
		}
	case li:
		x.bullet(f.key, text)
	}
}

// bullet parses "Name: Value" items. Only the first colon splits; a value
// may itself contain colons ("Interface: SATA: 300" keeps "SATA: 300").
func (x *extractor) bullet(key uint64, text []byte) {
	colon := bytes.IndexByte(text, ':')
	if colon <= 0 || colon == len(text)-1 {
		return
	}
	name := text[:colon]
	// Reject bullets whose "name" looks like prose (too many tokens).
	if len(bytes.Fields(name)) > 6 {
		return
	}
	x.add(key, name, text[colon+1:])
}

func (x *extractor) add(key uint64, name, value []byte) {
	x.unsorted = x.unsorted || len(x.pairs) > 0 && x.pairs[len(x.pairs)-1].key > key
	x.pairs = append(x.pairs, pair{key: key, name: name, value: value})
}

// seenMapAt is the count of pairs from which spec looks names up in a map;
// below it, a scan of the kept pairs is cheaper than building one.
const seenMapAt = 32

// spec puts the pairs in order, keeps those that pass the filters, and
// copies their names and values into one fresh string.
func (x *extractor) spec() catalog.Spec {
	if x.unsorted {
		slices.SortStableFunc(x.pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	}
	var seen map[string]bool
	if len(x.pairs) >= seenMapAt {
		seen = make(map[string]bool, len(x.pairs))
	}
	kept, size := x.pairs[:0], 0
	for _, p := range x.pairs {
		name := bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(p.name), []byte(":")))
		value := bytes.TrimSpace(p.value)
		if len(name) == 0 || len(value) == 0 || x.opts.MaxValueLen > 0 && len(value) > x.opts.MaxValueLen {
			continue
		}
		if x.opts.MaxPairs > 0 && len(kept) >= x.opts.MaxPairs {
			break
		}
		// First occurrence wins; spec tables occasionally repeat rows.
		if seen[string(name)] || seen == nil && slices.ContainsFunc(kept, func(k pair) bool { return bytes.Equal(k.name, name) }) {
			continue
		}
		if seen != nil {
			seen[string(name)] = true
		}
		kept = append(kept, pair{name: name, value: value})
		size += len(name) + len(value)
	}
	if len(kept) == 0 {
		return nil
	}
	var b strings.Builder
	b.Grow(size)
	for _, k := range kept {
		b.Write(k.name)
		b.Write(k.value)
	}
	s := b.String()
	spec := make(catalog.Spec, len(kept))
	for i, k := range kept {
		n, v := len(k.name), len(k.name)+len(k.value)
		spec[i] = catalog.AttributeValue{Name: s[:n], Value: s[n:v]}
		s = s[v:]
	}
	return spec
}
