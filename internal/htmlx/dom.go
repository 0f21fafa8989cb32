package htmlx

import (
	"slices"
	"strings"
	"unicode/utf8"
)

// NodeType enumerates DOM node kinds.
type NodeType int

const (
	// ElementNode is an element with a tag name and children.
	ElementNode NodeType = iota
	// TextNode is character data.
	TextNode
)

// Node is a DOM tree node.
type Node struct {
	Type     NodeType
	Tag      string // element tag name (lower case), empty for text
	Text     string // text content for TextNode
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// isVoid reports whether tag is an HTML void element, which never has
// children.
func isVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// autoCloses reports whether opening tag implicitly closes an open element
// with tag open. This covers the common unclosed-markup patterns on
// merchant pages: successive <li>, <tr>, <td>, <th>, <option>, <p> without
// close tags.
func autoCloses(tag, open string) bool {
	switch tag {
	case "li", "option", "p":
		return open == tag
	case "tr":
		return open == "tr" || open == "td" || open == "th"
	case "td", "th":
		return open == "td" || open == "th"
	case "dt", "dd":
		return open == "dt" || open == "dd"
	}
	return false
}

// Handler receives a page's elements and text from Stream.
type Handler interface {
	// Open starts an element inside the innermost open one. The next tag
	// reuses attrs, so Open must copy what it keeps.
	Open(tag string, attrs []Attr)
	// Close ends the innermost open element.
	Close()
	// Text is character data inside the innermost open element, entities
	// decoded. It is never only whitespace.
	Text(text string)
}

// Stream lexes input and reports to h, in document order, every element
// and text node of the tree Parse builds, with no tree. It is tolerant, by
// these rules over the stack of open elements:
//   - an opening tag first closes the open elements it auto-closes;
//   - a void or self-closing element opens and closes at once;
//   - an end tag closes every element down to its innermost open match,
//     and a stray end tag, with no open match, is dropped;
//   - every element still open closes at EOF;
//   - comments, and text that is only whitespace, are dropped.
func Stream(input string, h Handler) {
	var small [32]string // most pages nest less deeply
	open := small[:0]    // the open elements' tags, innermost last
	closeTo := func(n int) {
		for len(open) > n {
			open = open[:len(open)-1]
			h.Close()
		}
	}
	lex(input, func(tok Token) {
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) != "" {
				h.Text(tok.Data)
			}
		case StartTagToken, SelfClosingToken:
			for len(open) > 0 && autoCloses(tok.Data, open[len(open)-1]) {
				closeTo(len(open) - 1)
			}
			h.Open(tok.Data, tok.Attrs)
			if tok.Type == StartTagToken && !isVoid(tok.Data) {
				open = append(open, tok.Data)
			} else {
				h.Close()
			}
		case EndTagToken:
			for j := len(open) - 1; j >= 0; j-- {
				if open[j] == tok.Data {
					closeTo(j)
					break
				}
			}
		}
	})
	closeTo(0)
}

// Parse builds the tree of the elements and text Stream reports for input,
// rooted at a synthetic element with Tag "#root".
func Parse(input string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root"}
	b := builder{open: []*Node{root}}
	Stream(input, &b)
	b.Close()
	return root
}

// builder is the Handler that assembles Parse's tree. It clips each
// Children list to cap == len when its element closes, so appending to a
// list always copies it.
type builder struct{ open []*Node } // the open elements; open[0] is the root

func (b *builder) add(n *Node) {
	n.Parent = b.open[len(b.open)-1]
	n.Parent.Children = append(n.Parent.Children, n)
}

func (b *builder) Open(tag string, attrs []Attr) {
	n := &Node{Type: ElementNode, Tag: tag, Attrs: slices.Clone(attrs)}
	b.add(n)
	b.open = append(b.open, n)
}

func (b *builder) Close() {
	n := b.open[len(b.open)-1]
	n.Children = slices.Clip(n.Children)
	b.open = b.open[:len(b.open)-1]
}

func (b *builder) Text(text string) { b.add(&Node{Type: TextNode, Text: text}) }

// InnerText returns the concatenated text content of the subtree, with
// runs of whitespace (U+00A0 included) collapsed to single spaces and the
// result trimmed. Invalid UTF-8 becomes U+FFFD. Script and style subtrees
// are skipped. The result is a fresh string: it never aliases the page, so
// keeping it does not keep the page alive.
func (n *Node) InnerText() string {
	var small [64]byte // spec cells fit, so the buffer stays on the stack
	return string(n.appendText(small[:0]))
}

// appendText appends the subtree's text to buf, whitespace collapsed.
func (n *Node) appendText(buf []byte) []byte {
	if n.Type == TextNode {
		return AppendCollapsed(buf, n.Text)
	}
	if n.Tag == "script" || n.Tag == "style" {
		return buf
	}
	for _, c := range n.Children {
		buf = c.appendText(buf)
	}
	return buf
}

// AppendCollapsed appends s to buf with every run of whitespace, U+00A0
// included, as one space, and none at the start of buf. Text nodes are
// separated by whitespace, so a space is pending before s. Invalid UTF-8
// is written as U+FFFD.
func AppendCollapsed(buf []byte, s string) []byte {
	space := true
	for i := 0; i < len(s); {
		c := s[i]
		size := 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			if r == '\u00a0' {
				c = ' '
			}
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
			space = true
			i += size
			continue
		}
		if space && len(buf) > 0 {
			buf = append(buf, ' ')
		}
		space = false
		if c >= utf8.RuneSelf && size == 1 {
			buf = utf8.AppendRune(buf, utf8.RuneError)
		} else {
			buf = append(buf, s[i:i+size]...)
		}
		i += size
	}
	return buf
}

// Walk performs a pre-order traversal, calling fn for every node. If fn
// returns false the subtree below that node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindAll returns all element nodes with the given tag, in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(node *Node) bool {
		if node.Type == ElementNode && node.Tag == tag {
			out = append(out, node)
		}
		return true
	})
	return out
}
