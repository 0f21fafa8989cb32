// Package htmlx is a small, dependency-free HTML tokenizer, event source
// and DOM builder, sufficient for the Web-page Attribute Extraction
// component of the paper (§4). It handles the messy HTML found in the wild —
// unquoted attributes, unclosed tags (<li>, <td>, <tr>, <p>), void elements
// (<br>, <img>), comments, script/style raw text, and character entities.
//
// It intentionally does not implement the full WHATWG parsing algorithm;
// the subset implemented is documented per function and covered by tests.
//
// Stream runs once per landing page on every offer, so it builds no tree
// and little garbage: it takes one token at a time from the lexer, whose
// tags share one attribute buffer, and reports elements and text to a
// Handler such as the extractor. Parse builds its tree as one more
// Handler. Node text and attribute values may share memory with the page,
// but InnerText always returns a fresh string.
package htmlx

import (
	"slices"
	"strings"
	"unicode"
)

// TokenType enumerates the lexical token kinds.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <name attr=...>.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingToken is <name ... />.
	SelfClosingToken
	// CommentToken is <!-- ... --> (also used for <!doctype>).
	CommentToken
)

// Token is one lexical HTML token.
type Token struct {
	Type TokenType
	// Data is the tag name (lower-cased) for tag tokens, or the decoded
	// text for TextToken/CommentToken.
	Data string
	// Attrs holds the tag attributes in document order.
	Attrs []Attr
}

// Attr is one name="value" attribute.
type Attr struct {
	Key string
	Val string
}

// Tokenize lexes the whole document into tokens. It never fails: malformed
// markup degrades to text, mirroring browser behaviour. Stream takes the
// same tokens straight from the lexer, one at a time, and does not call it.
func Tokenize(input string) []Token {
	var toks []Token
	lex(input, func(tok Token) {
		tok.Attrs = slices.Clone(tok.Attrs)
		toks = append(toks, tok)
	})
	return toks
}

// lex calls emit once per token of input, in document order, and builds no
// token slice. Every tag's Attrs is cut from one buffer that the next tag
// reuses, so emit must copy any Attrs it keeps.
func lex(input string, emit func(Token)) {
	var attrs []Attr
	text := func(raw string) {
		if raw != "" {
			emit(Token{Type: TextToken, Data: UnescapeEntities(raw)})
		}
	}
	i := 0
	n := len(input)
	for i < n {
		lt := strings.IndexByte(input[i:], '<')
		if lt < 0 {
			text(input[i:])
			break
		}
		if lt > 0 {
			text(input[i : i+lt])
			i += lt
		}
		// input[i] == '<'
		if i+1 >= n {
			text(input[i:])
			break
		}
		switch {
		case strings.HasPrefix(input[i:], "<!--"):
			end := strings.Index(input[i+4:], "-->")
			if end < 0 {
				emit(Token{Type: CommentToken, Data: input[i+4:]})
				i = n
			} else {
				emit(Token{Type: CommentToken, Data: input[i+4 : i+4+end]})
				i += 4 + end + 3
			}
		case input[i+1] == '!' || input[i+1] == '?':
			// Doctype or processing instruction: swallow to '>'.
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				i = n
			} else {
				emit(Token{Type: CommentToken, Data: input[i+1 : i+end]})
				i += end + 1
			}
		case input[i+1] == '/':
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				text(input[i:])
				i = n
				break
			}
			name := strings.ToLower(strings.TrimSpace(input[i+2 : i+end]))
			if name != "" {
				emit(Token{Type: EndTagToken, Data: name})
			}
			i += end + 1
		case isNameStart(input[i+1]):
			var tok Token
			tok, i, attrs = lexStartTag(input, i, attrs[:0])
			emit(tok)
			// script and style content is raw text until the matching
			// close tag; never interpret tags inside it.
			if tok.Type == StartTagToken && (tok.Data == "script" || tok.Data == "style") {
				end := indexCloser(input[i:], tok.Data)
				if end < 0 {
					if i < n {
						emit(Token{Type: TextToken, Data: input[i:]})
					}
					i = n
					break
				}
				if end > 0 {
					emit(Token{Type: TextToken, Data: input[i : i+end]})
				}
				i += end
				gt := strings.IndexByte(input[i:], '>')
				emit(Token{Type: EndTagToken, Data: tok.Data})
				if gt < 0 {
					i = n
				} else {
					i += gt + 1
				}
			}
		default:
			// A lone '<' that does not open a tag: literal text.
			text("<")
			i++
		}
	}
}

// indexCloser returns the index of the first "</" + tag in s, matching the
// ASCII letters of tag case-insensitively, or -1. It searches s itself, not
// a lower-cased copy: strings.ToLower changes byte lengths (an invalid byte
// becomes a 3-byte U+FFFD, 'İ' and the Kelvin sign shrink to 'i' and 'k'),
// so an index into the copy is not an index into s. No non-ASCII rune lower-cases into
// "</script" or "</style", so this finds what a lower-cased search meant to.
func indexCloser(s, tag string) int {
	for i := 0; ; {
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			return -1
		}
		i += lt
		if len(s)-i < 2+len(tag) {
			return -1
		}
		if s[i+1] == '/' && equalFoldASCII(s[i+2:i+2+len(tag)], tag) {
			return i
		}
		i++
	}
}

// equalFoldASCII reports whether s equals the lower-case ASCII word lower
// when s's ASCII upper-case letters are lower-cased.
func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// lexStartTag lexes a start tag beginning at input[start] == '<'. It
// appends the tag's attributes to the empty attrs, whose array it may
// reuse, and sets tok.Attrs to them. Returns the token, the index just past
// the closing '>', and the grown attrs.
func lexStartTag(input string, start int, attrs []Attr) (Token, int, []Attr) {
	i := start + 1
	n := len(input)
	nameStart := i
	for i < n && (isNameStart(input[i]) || input[i] >= '0' && input[i] <= '9' || input[i] == '-' || input[i] == ':') {
		i++
	}
	tok := Token{Type: StartTagToken, Data: strings.ToLower(input[nameStart:i])}
	next := n
scan:
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(input[i]) {
			i++
		}
		if i >= n {
			break
		}
		if input[i] == '>' {
			next = i + 1
			break
		}
		if input[i] == '/' {
			// Possibly self-closing.
			j := i + 1
			for j < n && isSpace(input[j]) {
				j++
			}
			if j < n && input[j] == '>' {
				tok.Type = SelfClosingToken
				next = j + 1
				break scan
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
			attrs = append(attrs, Attr{Key: key, Val: UnescapeEntities(val)})
		}
	}
	if len(attrs) > 0 {
		tok.Attrs = attrs
	}
	return tok, next, attrs
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// entityTable covers the named entities that occur in product spec markup.
var entityTable = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"deg": '°', "frac12": '½', "frac14": '¼', "times": '×',
	"ndash": '–', "mdash": '—', "hellip": '…', "bull": '•',
}

// UnescapeEntities decodes named and numeric character references. Unknown
// references are left verbatim (browser behaviour).
func UnescapeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if r, ok := decodeEntity(ent); ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func decodeEntity(ent string) (rune, bool) {
	if ent == "" {
		return 0, false
	}
	if ent[0] == '#' {
		num := ent[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		var v rune
		for _, c := range num {
			var d rune
			switch {
			case c >= '0' && c <= '9':
				d = c - '0'
			case base == 16 && c >= 'a' && c <= 'f':
				d = c - 'a' + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = c - 'A' + 10
			default:
				return 0, false
			}
			v = v*rune(base) + d
			if v > unicode.MaxRune {
				return 0, false
			}
		}
		if v == 0 {
			return 0, false
		}
		return v, true
	}
	r, ok := entityTable[ent]
	return r, ok
}
