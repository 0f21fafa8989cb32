package serve

import (
	"unicode/utf8"
)

// decodeRequest is the one-pass decoder of a /v1/synthesize body. It
// accepts only a canonical subset of JSON, the subset json.Marshal writes
// for a SynthesizeRequest:
//
//   - an object at the top level, after optional whitespace; the bytes
//     after it are ignored, as json.Decoder.Decode ignores them;
//   - in every object, only the exact keys of the struct tags, each at
//     most once, written without escapes;
//   - strings with the standard escapes, \uXXXX outside the surrogate
//     range included, that decode to valid UTF-8;
//   - integers in int64 range, with no fraction or exponent.
//
// It reports false on anything else: null, case-variant or escaped keys,
// duplicate keys, surrogate escapes, invalid UTF-8, 1.0 or 1e3, unknown
// fields and syntax errors. req then holds a partial value, which the
// caller discards before handing the same bytes to encoding/json. Where it
// reports true, encoding/json with DisallowUnknownFields accepts the body
// and decodes the same value: an empty array yields an empty non-nil
// slice, an absent key a nil one (FuzzDecodeRequest holds it to that).
func decodeRequest(body []byte, req *SynthesizeRequest) bool {
	d := decoder{buf: body}
	return d.object(requestKeys, func(k int) bool {
		switch k {
		case 0:
			req.Offers = []OfferJSON{}
			return d.array(func() bool {
				req.Offers = append(req.Offers, OfferJSON{})
				return d.offer(&req.Offers[len(req.Offers)-1])
			})
		case 1:
			req.Pages = []PageJSON{}
			return d.array(func() bool {
				req.Pages = append(req.Pages, PageJSON{})
				return d.page(&req.Pages[len(req.Pages)-1])
			})
		default:
			return d.int(&req.TimeoutMillis)
		}
	})
}

// The keys of each wire object, in the order its decode switch numbers
// them.
var (
	requestKeys = []string{"offers", "pages", "timeout_ms"}
	offerKeys   = []string{"id", "merchant", "category_id", "title", "price_cents", "url", "image_url", "spec"}
	pageKeys    = []string{"url", "html"}
	attrKeys    = []string{"name", "value"}
)

// decoder is the read position in a body, plus the buffer strings with
// escapes are unescaped into. Every method reports false at the first
// byte outside the subset, and returns at once; nothing is retried, so a
// decode is linear in the body.
type decoder struct {
	buf     []byte
	pos     int
	scratch []byte
}

func (d *decoder) offer(o *OfferJSON) bool {
	return d.object(offerKeys, func(k int) bool {
		switch k {
		case 0:
			return d.str(&o.ID)
		case 1:
			return d.str(&o.Merchant)
		case 2:
			return d.str(&o.CategoryID)
		case 3:
			return d.str(&o.Title)
		case 4:
			return d.int(&o.PriceCents)
		case 5:
			return d.str(&o.URL)
		case 6:
			return d.str(&o.ImageURL)
		default:
			o.Spec = []AttrJSON{}
			return d.array(func() bool {
				o.Spec = append(o.Spec, AttrJSON{})
				a := &o.Spec[len(o.Spec)-1]
				return d.object(attrKeys, func(k int) bool {
					if k == 0 {
						return d.str(&a.Name)
					}
					return d.str(&a.Value)
				})
			})
		}
	})
}

func (d *decoder) page(p *PageJSON) bool {
	return d.object(pageKeys, func(k int) bool {
		if k == 0 {
			return d.str(&p.URL)
		}
		return d.str(&p.HTML)
	})
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and reports whether the next byte is c, consuming
// it if so.
func (d *decoder) next(c byte) bool {
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object decodes one object whose keys are among keys, each at most once;
// field decodes the value of keys[k].
func (d *decoder) object(keys []string, field func(k int) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		k := d.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !d.next(':') {
			return false
		}
		seen |= 1 << k
		d.space()
		if !field(k) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// key reads one object key and returns its index in keys, or -1 when it is
// not exactly one of them. A key with an escape never matches: no key has
// a backslash in it.
func (d *decoder) key(keys []string) int {
	d.space()
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return -1
	}
	start := d.pos + 1
	end := start
	for end < len(d.buf) && d.buf[end] != '"' {
		end++
	}
	if end == len(d.buf) {
		return -1
	}
	d.pos = end + 1
	for k, key := range keys {
		if string(d.buf[start:end]) == key {
			return k
		}
	}
	return -1
}

// array decodes one array, calling elem for each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		d.space()
		if !elem() {
			return false
		}
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// int decodes an integer in int64 range: an optional minus sign, then 0
// or a digit run without a leading zero. A fraction or exponent is left
// unread, so the caller fails on it.
func (d *decoder) int(into *int64) bool {
	i := d.pos
	neg := i < len(d.buf) && d.buf[i] == '-'
	if neg {
		i++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var n uint64
	digits := i
	for ; i < len(d.buf) && '0' <= d.buf[i] && d.buf[i] <= '9'; i++ {
		if i > digits && d.buf[digits] == '0' {
			return false
		}
		c := uint64(d.buf[i] - '0')
		if n > (limit-c)/10 {
			return false
		}
		n = n*10 + c
	}
	if i == digits {
		return false
	}
	d.pos = i
	if neg {
		*into = int64(-n)
	} else {
		*into = int64(n)
	}
	return true
}

// plain marks the bytes a string holds as they are: printable ASCII other
// than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes one string. A string without escapes is copied out of the
// body once; one with escapes is unescaped into the scratch buffer first.
func (d *decoder) str(into *string) bool {
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return false
	}
	i := d.pos + 1
	start := i
	out := d.scratch[:0]
	escaped := false
	for {
		for i < len(d.buf) && plain[d.buf[i]] {
			i++
		}
		if i == len(d.buf) {
			return false
		}
		switch c := d.buf[i]; {
		case c == '"':
			if escaped {
				out = append(out, d.buf[start:i]...)
				*into = string(out)
				d.scratch = out
			} else {
				*into = string(d.buf[start:i])
			}
			d.pos = i + 1
			return true
		case c == '\\':
			out = append(out, d.buf[start:i]...)
			escaped = true
			var ok bool
			if out, i, ok = unescape(out, d.buf, i); !ok {
				return false
			}
			start = i
		case c < 0x20:
			return false
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
}

// unescape appends the escape at buf[i] (a backslash) to out, and returns
// the index after it. It fails on an unknown escape, on a \u escape that is
// short, not hex, or in the surrogate range.
func unescape(out, buf []byte, i int) ([]byte, int, bool) {
	if i+1 >= len(buf) {
		return out, i, false
	}
	c := buf[i+1]
	if c != 'u' {
		if c = unescaped[c]; c == 0 {
			return out, i, false
		}
		return append(out, c), i + 2, true
	}
	if i+6 > len(buf) {
		return out, i, false
	}
	h0, h1, h2, h3 := hexDigit[buf[i+2]], hexDigit[buf[i+3]], hexDigit[buf[i+4]], hexDigit[buf[i+5]]
	if h0|h1|h2|h3 < 0 {
		return out, i, false
	}
	r := rune(h0)<<12 | rune(h1)<<8 | rune(h2)<<4 | rune(h3)
	switch {
	case r < utf8.RuneSelf:
		return append(out, byte(r)), i + 6, true
	case 0xD800 <= r && r < 0xE000:
		return out, i, false
	}
	return utf8.AppendRune(out, r), i + 6, true
}

// unescaped maps the byte after a backslash to the byte it stands for, or
// to 0 when that is not a one-byte escape.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hexDigit maps a byte to its value as a hex digit, or to -1.
var hexDigit = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()
