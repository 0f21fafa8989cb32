package htmlx

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTokenizeSimple(t *testing.T) {
	toks := Tokenize(`<p class="x">Hello</p>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "p" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if v, _ := attr(toks[0], "class"); v != "x" {
		t.Errorf("class = %q", v)
	}
	if toks[1].Type != TextToken || toks[1].Data != "Hello" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "p" {
		t.Errorf("tok2 = %+v", toks[2])
	}
}

func attr(tok Token, key string) (string, bool) {
	for _, a := range tok.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

func TestTokenizeUnquotedAndSingleQuotedAttrs(t *testing.T) {
	toks := Tokenize(`<td width=100 align='left' nowrap>x</td>`)
	if toks[0].Data != "td" {
		t.Fatalf("tok = %+v", toks[0])
	}
	if v, _ := attr(toks[0], "width"); v != "100" {
		t.Errorf("width = %q", v)
	}
	if v, _ := attr(toks[0], "align"); v != "left" {
		t.Errorf("align = %q", v)
	}
	if _, ok := attr(toks[0], "nowrap"); !ok {
		t.Error("bare attribute lost")
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := Tokenize(`<br/><img src="x.png" />`)
	if toks[0].Type != SelfClosingToken || toks[0].Data != "br" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != SelfClosingToken || toks[1].Data != "img" {
		t.Errorf("tok1 = %+v", toks[1])
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := Tokenize(`<!doctype html><!-- nav starts -->text`)
	if toks[0].Type != CommentToken {
		t.Errorf("doctype tok = %+v", toks[0])
	}
	if toks[1].Type != CommentToken || toks[1].Data != " nav starts " {
		t.Errorf("comment tok = %+v", toks[1])
	}
	if toks[2].Type != TextToken || toks[2].Data != "text" {
		t.Errorf("text tok = %+v", toks[2])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	toks := Tokenize(`<script>if (a < b) { x("<td>"); }</script><p>after</p>`)
	// Expect: script start, raw text, script end, p start, text, p end.
	if toks[0].Data != "script" {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `x("<td>")`) {
		t.Errorf("script body = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Errorf("script end = %+v", toks[2])
	}
	if toks[3].Data != "p" {
		t.Errorf("after = %+v", toks[3])
	}
}

// TestTokenizeScriptCloserNonASCII pins the script/style closer search to
// byte offsets in the page itself. Searching a strings.ToLower copy went
// wrong whenever lower-casing changed byte lengths before the closer: an
// invalid UTF-8 byte becomes a 3-byte U+FFFD (and the index ran past the
// end of the page, a panic), 'İ' shrinks from 2 bytes to 1 and the Kelvin
// sign from 3 to 1.
func TestTokenizeScriptCloserNonASCII(t *testing.T) {
	cases := []struct{ name, tag, body, closer string }{
		{"invalid UTF-8", "script", "var s = \"" + strings.Repeat("\xe9", 12) + "\";", "</script>"},
		{"dotted capital I", "script", `var s = "İİİİ";`, "</script>"},
		{"Kelvin sign", "style", "/* \u212a\u212a\u212a\u212a */", "</style>"},
		{"upper-case closer", "script", "var k = \"\u212a\xff\";", "</SCRIPT >"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			page := "<" + c.tag + ">" + c.body + c.closer + "<p>after</p>"
			toks := Tokenize(page)
			want := []Token{
				{Type: StartTagToken, Data: c.tag},
				{Type: TextToken, Data: c.body},
				{Type: EndTagToken, Data: c.tag},
				{Type: StartTagToken, Data: "p"},
				{Type: TextToken, Data: "after"},
				{Type: EndTagToken, Data: "p"},
			}
			if len(toks) != len(want) {
				t.Fatalf("got %d tokens %q, want %d", len(toks), toks, len(want))
			}
			for i := range want {
				if toks[i].Type != want[i].Type || toks[i].Data != want[i].Data {
					t.Errorf("token %d = {%d %q}, want {%d %q}", i, toks[i].Type, toks[i].Data, want[i].Type, want[i].Data)
				}
			}
			if got := Parse(page).InnerText(); got != "after" {
				t.Errorf("InnerText = %q, want %q", got, "after")
			}
		})
	}
}

// TestChildrenAppendDoesNotClobber: every Children list is cut from one
// backing array per page, so each must have cap == len, or a caller's
// append would overwrite the next node's children.
func TestChildrenAppendDoesNotClobber(t *testing.T) {
	root := Parse(`<div><p>a</p><p>b</p></div><span>c</span>`)
	div, span := root.Children[0], root.Children[1]
	div.Children = append(div.Children, &Node{Type: TextNode, Text: "x"})
	if span.Tag != "span" || len(span.Children) != 1 || span.Children[0].Text != "c" {
		t.Fatalf("appending to one Children list changed another: span = %+v", span)
	}
	if got := root.InnerText(); got != "a b x c" {
		t.Errorf("InnerText = %q, want %q", got, "a b x c")
	}
}

// TestInnerTextDoesNotAliasPage: spec values outlive the page in the Model
// and in stream memory, so InnerText must copy, even when the text is one
// text node that needs no collapsing.
func TestInnerTextDoesNotAliasPage(t *testing.T) {
	page := "<table><tr><td>Brand</td><td>Acme</td></tr></table>"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(page)))
	hi := lo + uintptr(len(page))
	for _, td := range Parse(page).FindAll("td") {
		got := td.InnerText()
		if p := uintptr(unsafe.Pointer(unsafe.StringData(got))); p >= lo && p < hi {
			t.Errorf("InnerText %q aliases the page", got)
		}
	}
}

func TestTokenizeLoneLessThan(t *testing.T) {
	toks := Tokenize(`5 < 7 and <b>bold</b>`)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == TextToken {
			text.WriteString(tok.Data)
		}
	}
	if !strings.Contains(text.String(), "<") {
		t.Errorf("lone < lost: %q", text.String())
	}
}

func TestTokenizeNeverPanics(t *testing.T) {
	f := func(s string) bool {
		Tokenize(s) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Targeted nasties.
	for _, s := range []string{
		"<", "</", "<a", "<a href=", `<a href="unterminated`, "<!--unterminated",
		"<script>never closed", "</>", "< >", "<a/", "<a /", "&", "&#", "&#x;",
	} {
		Tokenize(s)
	}
}

func TestUnescapeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"&lt;td&gt;", "<td>"},
		{"&#65;&#x42;", "AB"},
		{"&nbsp;", " "},
		{"&unknown;", "&unknown;"},
		{"no entities", "no entities"},
		{"&", "&"},
		{"&#0;", "&#0;"},
		{"5&quot;", `5"`},
	}
	for _, c := range cases {
		if got := UnescapeEntities(c.in); got != c.want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseTree(t *testing.T) {
	root := Parse(`<html><body><div id="main"><p>one</p><p>two</p></div></body></html>`)
	ps := root.FindAll("p")
	if len(ps) != 2 {
		t.Fatalf("found %d <p>", len(ps))
	}
	if ps[0].InnerText() != "one" || ps[1].InnerText() != "two" {
		t.Errorf("texts = %q, %q", ps[0].InnerText(), ps[1].InnerText())
	}
	div := root.FindAll("div")[0]
	if want := []Attr{{Key: "id", Val: "main"}}; !slices.Equal(div.Attrs, want) {
		t.Errorf("attrs = %q, want %q", div.Attrs, want)
	}
	if ps[0].Parent != div {
		t.Error("parent pointer wrong")
	}
}

func TestParseAutoCloseTableCells(t *testing.T) {
	// Unclosed <tr> and <td>, as on sloppy merchant pages.
	root := Parse(`<table>
		<tr><td>Brand<td>Seagate
		<tr><td>Capacity<td>500 GB
	</table>`)
	trs := root.FindAll("tr")
	if len(trs) != 2 {
		t.Fatalf("found %d rows", len(trs))
	}
	for i, tr := range trs {
		tds := childElements(tr, "td")
		if len(tds) != 2 {
			t.Errorf("row %d has %d cells: %q", i, len(tds), tr.InnerText())
		}
	}
	if got := childElements(trs[1], "td")[1].InnerText(); got != "500 GB" {
		t.Errorf("cell = %q", got)
	}
}

// childElements returns n's direct element children with the given tag, so
// a cell left nested inside its predecessor does not count as a row cell.
func childElements(n *Node, tag string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
	}
	return out
}

func TestParseAutoCloseListItems(t *testing.T) {
	root := Parse(`<ul><li>Resolution: 12 MP<li>Zoom: 3x</ul>`)
	lis := root.FindAll("li")
	if len(lis) != 2 {
		t.Fatalf("found %d <li>", len(lis))
	}
	if lis[0].InnerText() != "Resolution: 12 MP" {
		t.Errorf("li0 = %q", lis[0].InnerText())
	}
}

func TestParseStrayEndTag(t *testing.T) {
	root := Parse(`<div></span><p>ok</p></div>`)
	if got := root.InnerText(); got != "ok" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestParseUnclosedAtEOF(t *testing.T) {
	root := Parse(`<div><p>dangling`)
	if got := root.InnerText(); got != "dangling" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestInnerTextSkipsScriptStyle(t *testing.T) {
	root := Parse(`<div>visible<script>var x = "hidden";</script><style>.a{}</style></div>`)
	if got := root.InnerText(); got != "visible" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestInnerTextCollapsesWhitespace(t *testing.T) {
	root := Parse("<p>  a \n\t b  </p>")
	if got := root.InnerText(); got != "a b" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestWalkPrune(t *testing.T) {
	root := Parse(`<div><table><tr><td>x</td></tr></table><p>y</p></div>`)
	var visited []string
	root.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Tag)
			return n.Tag != "table" // prune below table
		}
		return true
	})
	for _, tag := range visited {
		if tag == "tr" || tag == "td" {
			t.Errorf("walk did not prune: %v", visited)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		root := Parse(s)
		root.InnerText()
		return root != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseEntitiesInAttributesAndText(t *testing.T) {
	root := Parse(`<td title="A &amp; B">3.5&quot; drive</td>`)
	td := root.FindAll("td")[0]
	if want := []Attr{{Key: "title", Val: "A & B"}}; !slices.Equal(td.Attrs, want) {
		t.Errorf("attrs = %q, want %q", td.Attrs, want)
	}
	if got := td.InnerText(); got != `3.5" drive` {
		t.Errorf("text = %q", got)
	}
}

func BenchmarkParseSpecPage(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body><div class='nav'><ul>")
	for i := 0; i < 20; i++ {
		sb.WriteString("<li><a href='/x'>Link</a></li>")
	}
	sb.WriteString("</ul></div><table>")
	for i := 0; i < 30; i++ {
		sb.WriteString("<tr><td>Attribute Name</td><td>Some Value 123</td></tr>")
	}
	sb.WriteString("</table></body></html>")
	page := sb.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		Parse(page)
	}
}
