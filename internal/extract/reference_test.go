package extract

import (
	"strings"

	"prodsynth/internal/catalog"
	"prodsynth/internal/htmlx"
)

// This file is a verbatim reference copy of FromDOM and its helpers as
// they were before the extractor stopped allocating per row, renamed with a
// ref prefix. FuzzExtract and TestExtractMatchesReferenceOnMarketplace
// hold FromDOM to it.

// refFromDOM extracts attribute-value pairs from an already-parsed DOM.
func refFromDOM(root *htmlx.Node, opts Options) catalog.Spec {
	var spec catalog.Spec
	seen := make(map[string]bool)

	add := func(name, value string) {
		name = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(name), ":"))
		value = strings.TrimSpace(value)
		if name == "" || value == "" {
			return
		}
		if opts.MaxValueLen > 0 && len(value) > opts.MaxValueLen {
			return
		}
		if opts.MaxPairs > 0 && len(spec) >= opts.MaxPairs {
			return
		}
		// First occurrence wins; spec tables occasionally repeat rows.
		if seen[name] {
			return
		}
		seen[name] = true
		spec = append(spec, catalog.AttributeValue{Name: name, Value: value})
	}

	for _, table := range root.FindAll("table") {
		refExtractTable(table, add)
	}
	if opts.IncludeDefinitionLists {
		for _, dl := range root.FindAll("dl") {
			refExtractDefinitionList(dl, add)
		}
	}
	if opts.IncludeBulletLists {
		for _, li := range root.FindAll("li") {
			refExtractBullet(li, add)
		}
	}
	return spec
}

// refExtractTable walks one table element. Per the paper, only rows with
// exactly two cells contribute: first cell is the name, second the value.
// Rows are found at any nesting depth below the table (tbody/thead are
// common), but rows of nested tables are handled by their own FindAll
// visit, so they are skipped here.
func refExtractTable(table *htmlx.Node, add func(name, value string)) {
	var rows []*htmlx.Node
	table.Walk(func(n *htmlx.Node) bool {
		if n != table && n.Type == htmlx.ElementNode && n.Tag == "table" {
			return false // nested table: visited separately
		}
		if n.Type == htmlx.ElementNode && n.Tag == "tr" {
			rows = append(rows, n)
			return false
		}
		return true
	})
	for _, tr := range rows {
		cells := refCellsOf(tr)
		if len(cells) != 2 {
			continue
		}
		add(cells[0].InnerText(), cells[1].InnerText())
	}
}

func refCellsOf(tr *htmlx.Node) []*htmlx.Node {
	var cells []*htmlx.Node
	for _, c := range tr.Children {
		if c.Type == htmlx.ElementNode && (c.Tag == "td" || c.Tag == "th") {
			cells = append(cells, c)
		}
	}
	return cells
}

func refExtractDefinitionList(dl *htmlx.Node, add func(name, value string)) {
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
				add(pendingName, c.InnerText())
				pendingName = ""
			}
		}
	}
}

// refExtractBullet parses "Name: Value" items. Only the first colon splits; a
// value may itself contain colons ("Interface: SATA: 300" keeps "SATA: 300").
func refExtractBullet(li *htmlx.Node, add func(name, value string)) {
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
	add(name, text[colon+1:])
}
