package htmlx

import (
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

// Attr returns the value of the named attribute on an element node.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
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

// Parse tokenizes the input and builds a DOM tree rooted at a synthetic
// element with Tag "#root". It is tolerant: stray end tags are dropped,
// unclosed elements are closed at EOF, and the auto-close rules above are
// applied.
//
// Parse takes tokens from the lexer as they are produced and keeps no
// token slice. Every node of the page lives in one slab, and every
// Children list is cut from one backing array (see builder.finish).
func Parse(input string) *Node {
	// Each node but the root starts at a '<' or at the text after one, so
	// the count of '<' is close to the node count and the slab rarely grows.
	// The cap keeps a script or comment full of '<' from reserving a node
	// for each; past it, the slab grows as it fills.
	guess := min(strings.Count(input, "<")+1, maxSlabGuess)
	b := builder{
		nodes:  make([]Node, 1, guess),
		parent: make([]int, 1, guess),
		stack:  make([]int, 1, 32),
	}
	b.nodes[0] = Node{Type: ElementNode, Tag: "#root"}
	lex(input, b.token)
	return b.finish()
}

// maxSlabGuess caps the nodes Parse reserves before it has seen any.
const maxSlabGuess = 4096

// builder assembles the tree by index while the slab may still grow, and
// turns indexes into pointers once it is complete.
type builder struct {
	nodes  []Node // the root first, then every node in creation order
	parent []int  // parent[i] is the index of nodes[i]'s parent
	stack  []int  // indexes of the open elements; stack[0] is the root
}

func (b *builder) add(n Node) int {
	b.nodes = append(b.nodes, n)
	b.parent = append(b.parent, b.stack[len(b.stack)-1])
	return len(b.nodes) - 1
}

func (b *builder) token(tok Token) {
	switch tok.Type {
	case TextToken:
		if strings.TrimSpace(tok.Data) == "" {
			return
		}
		b.add(Node{Type: TextNode, Text: tok.Data})
	case CommentToken:
		// Dropped; comments carry no extraction signal.
	case StartTagToken, SelfClosingToken:
		for len(b.stack) > 1 && autoCloses(tok.Data, b.nodes[b.stack[len(b.stack)-1]].Tag) {
			b.stack = b.stack[:len(b.stack)-1]
		}
		el := b.add(Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
		if tok.Type == StartTagToken && !isVoid(tok.Data) {
			b.stack = append(b.stack, el)
		}
	case EndTagToken:
		// Find the matching open element; if found, pop to it.
		for j := len(b.stack) - 1; j >= 1; j-- {
			if b.nodes[b.stack[j]].Tag == tok.Data {
				b.stack = b.stack[:j]
				break
			}
		}
	}
}

// finish sets every Parent pointer and cuts every Children list from one
// backing array, in creation order, which is document order. Each list has
// cap == len, so a caller's append copies instead of overwriting the next
// node's children.
func (b *builder) finish() *Node {
	nodes := b.nodes
	kids := make([]*Node, len(nodes)-1)
	// Count each node's children in the length of its Children.
	for _, p := range b.parent[1:] {
		nodes[p].Children = kids[:len(nodes[p].Children)+1]
	}
	off := 0
	for i := range nodes {
		c := len(nodes[i].Children)
		if c == 0 {
			nodes[i].Children = nil
			continue
		}
		nodes[i].Children = kids[off : off : off+c]
		off += c
	}
	for i, p := range b.parent[1:] {
		child := &nodes[i+1]
		child.Parent = &nodes[p]
		nodes[p].Children = append(nodes[p].Children, child)
	}
	return &nodes[0]
}

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
		return appendCollapsed(buf, n.Text)
	}
	if n.Tag == "script" || n.Tag == "style" {
		return buf
	}
	for _, c := range n.Children {
		buf = c.appendText(buf)
	}
	return buf
}

// appendCollapsed appends s to buf with every run of whitespace, U+00A0
// included, as one space, and none at the start of buf. Text nodes are
// separated by whitespace, so a space is pending before s. Invalid UTF-8
// is written as U+FFFD.
func appendCollapsed(buf []byte, s string) []byte {
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

// ChildElements returns the element children with the given tag (any tag if
// tag is empty).
func (n *Node) ChildElements(tag string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && (tag == "" || c.Tag == tag) {
			out = append(out, c)
		}
	}
	return out
}
