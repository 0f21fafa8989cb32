package htmlx

import (
	"strings"
)

// This file is a reference copy of the lexer, tree builder and InnerText
// as they were before Parse streamed tokens into a slab-allocated tree. It
// is verbatim except for one fix: refTokenize finds the </script> or
// </style> closer in an ASCII-lower-cased copy of the rest of the input,
// which keeps byte offsets, where the original lower-cased it with
// strings.ToLower, which does not (see TestTokenizeScriptCloserNonASCII).
// FuzzParse and TestParseMatchesReferenceOnMarketplace hold Parse,
// Tokenize and InnerText to it.

func refTokenize(input string) []Token {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		lt := strings.IndexByte(input[i:], '<')
		if lt < 0 {
			refEmitText(&toks, input[i:])
			break
		}
		if lt > 0 {
			refEmitText(&toks, input[i:i+lt])
			i += lt
		}
		// input[i] == '<'
		if i+1 >= n {
			refEmitText(&toks, input[i:])
			break
		}
		switch {
		case strings.HasPrefix(input[i:], "<!--"):
			end := strings.Index(input[i+4:], "-->")
			if end < 0 {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+4:]})
				i = n
			} else {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+4 : i+4+end]})
				i += 4 + end + 3
			}
		case input[i+1] == '!' || input[i+1] == '?':
			// Doctype or processing instruction: swallow to '>'.
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				i = n
			} else {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+1 : i+end]})
				i += end + 1
			}
		case input[i+1] == '/':
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				refEmitText(&toks, input[i:])
				i = n
				break
			}
			name := strings.ToLower(strings.TrimSpace(input[i+2 : i+end]))
			if name != "" {
				toks = append(toks, Token{Type: EndTagToken, Data: name})
			}
			i += end + 1
		case isNameStart(input[i+1]):
			tok, next := refLexStartTag(input, i)
			toks = append(toks, tok)
			i = next
			// script and style content is raw text until the matching
			// close tag; never interpret tags inside it.
			if tok.Type == StartTagToken && (tok.Data == "script" || tok.Data == "style") {
				closer := "</" + tok.Data
				rest := refASCIILower(input[i:]) // the fix: was strings.ToLower
				end := strings.Index(rest, closer)
				if end < 0 {
					if i < n {
						toks = append(toks, Token{Type: TextToken, Data: input[i:]})
					}
					i = n
					break
				}
				if end > 0 {
					toks = append(toks, Token{Type: TextToken, Data: input[i : i+end]})
				}
				i += end
				gt := strings.IndexByte(input[i:], '>')
				toks = append(toks, Token{Type: EndTagToken, Data: tok.Data})
				if gt < 0 {
					i = n
				} else {
					i += gt + 1
				}
			}
		default:
			// A lone '<' that does not open a tag: literal text.
			refEmitText(&toks, "<")
			i++
		}
	}
	return toks
}

// refASCIILower lower-cases ASCII letters only, so every byte keeps its
// offset.
func refASCIILower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func refEmitText(toks *[]Token, raw string) {
	if raw == "" {
		return
	}
	*toks = append(*toks, Token{Type: TextToken, Data: UnescapeEntities(raw)})
}

func refLexStartTag(input string, start int) (Token, int) {
	i := start + 1
	n := len(input)
	nameStart := i
	for i < n && (isNameStart(input[i]) || input[i] >= '0' && input[i] <= '9' || input[i] == '-' || input[i] == ':') {
		i++
	}
	tok := Token{Type: StartTagToken, Data: strings.ToLower(input[nameStart:i])}
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(input[i]) {
			i++
		}
		if i >= n {
			return tok, n
		}
		if input[i] == '>' {
			return tok, i + 1
		}
		if input[i] == '/' {
			// Possibly self-closing.
			j := i + 1
			for j < n && isSpace(input[j]) {
				j++
			}
			if j < n && input[j] == '>' {
				tok.Type = SelfClosingToken
				return tok, j + 1
			}
			i++
			continue
		}
		// Attribute name.
		keyStart := i
		for i < n && input[i] != '=' && input[i] != '>' && input[i] != '/' && !isSpace(input[i]) {
			i++
		}
		key := strings.ToLower(input[keyStart:i])
		for i < n && isSpace(input[i]) {
			i++
		}
		val := ""
		if i < n && input[i] == '=' {
			i++
			for i < n && isSpace(input[i]) {
				i++
			}
			if i < n && (input[i] == '"' || input[i] == '\'') {
				quote := input[i]
				i++
				valStart := i
				for i < n && input[i] != quote {
					i++
				}
				val = input[valStart:i]
				if i < n {
					i++ // closing quote
				}
			} else {
				valStart := i
				for i < n && !isSpace(input[i]) && input[i] != '>' {
					i++
				}
				val = input[valStart:i]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: UnescapeEntities(val)})
		}
	}
	return tok, n
}

var refVoidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

var refAutoClose = map[string]map[string]bool{
	"li":     {"li": true},
	"tr":     {"tr": true, "td": true, "th": true},
	"td":     {"td": true, "th": true},
	"th":     {"td": true, "th": true},
	"option": {"option": true},
	"p":      {"p": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
}

func refParse(input string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root"}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }

	for _, tok := range refTokenize(input) {
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			cur := top()
			child := &Node{Type: TextNode, Text: tok.Data, Parent: cur}
			cur.Children = append(cur.Children, child)
		case CommentToken:
			// Dropped; comments carry no extraction signal.
		case StartTagToken, SelfClosingToken:
			if closes := refAutoClose[tok.Data]; closes != nil {
				for len(stack) > 1 && closes[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			cur := top()
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: cur}
			cur.Children = append(cur.Children, el)
			if tok.Type == StartTagToken && !refVoidElements[tok.Data] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Find the matching open element; if found, pop to it.
			for j := len(stack) - 1; j >= 1; j-- {
				if stack[j].Tag == tok.Data {
					stack = stack[:j]
					break
				}
			}
		}
	}
	return root
}

func refInnerText(n *Node) string {
	var b strings.Builder
	refAppendText(n, &b)
	return refCollapseSpace(b.String())
}

func refAppendText(n *Node, b *strings.Builder) {
	if n.Type == TextNode {
		b.WriteString(n.Text)
		b.WriteByte(' ')
		return
	}
	if n.Tag == "script" || n.Tag == "style" {
		return
	}
	for _, c := range n.Children {
		refAppendText(c, b)
	}
}

func refCollapseSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '\f' || r == '\u00a0' {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteRune(r)
	}
	return b.String()
}
