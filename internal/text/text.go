// Package text provides tokenization, normalization, bags of words, and
// term probability distributions. These are the shared lexical substrate
// for the schema-reconciliation features (Jensen-Shannon divergence over
// attribute value distributions), the value-fusion component, and the
// baseline matchers.
//
// All operations are pure and allocation-conscious; a Tokenizer can be
// reused across goroutines because it carries no mutable state.
package text

import (
	"slices"
	"sort"
	"strings"
	"unicode"
)

// Tokenizer splits raw attribute values and titles into normalized tokens.
// The zero value is ready to use and applies the default normalization:
// lower-casing, splitting on any non-alphanumeric rune, and splitting at
// letter/digit boundaries (so "500GB" becomes ["500", "gb"], matching how
// the paper's value distributions treat "500 GB" and "500GB" as overlapping).
type Tokenizer struct {
	// KeepAlphaNumJoined, when true, disables splitting at letter/digit
	// boundaries, so "500GB" stays a single token. The paper's examples
	// (Figure 5c) tokenize "ATA 100 mb/s" into ["ata", "100", "mb", "s"],
	// which the default behaviour reproduces.
	KeepAlphaNumJoined bool

	// StopWords, when non-nil, is a set of tokens dropped from output.
	StopWords map[string]bool
}

// DefaultTokenizer is the tokenizer used throughout the pipeline.
var DefaultTokenizer = Tokenizer{}

// Tokenize returns the normalized tokens of s, in order of appearance.
// It never returns nil; an input with no token content yields an empty slice.
// Allocation-sensitive callers should use Scanner or TokenizeIDs instead,
// which stream tokens through reusable buffers.
func (t Tokenizer) Tokenize(s string) []string {
	tokens := make([]string, 0, 8)
	sc := t.Scanner(nil, s)
	for {
		tok, ok := sc.Next()
		if !ok {
			return tokens
		}
		tokens = append(tokens, string(tok))
	}
}

type runeClass int

const (
	classOther runeClass = iota
	classLetter
	classDigit
)

func classify(r rune) runeClass {
	switch {
	case unicode.IsLetter(r):
		return classLetter
	case unicode.IsDigit(r):
		return classDigit
	default:
		return classOther
	}
}

// NormalizeName canonicalizes an attribute name for name-identity comparison:
// lower-case, with runs of non-alphanumeric runes collapsed to single spaces
// and leading/trailing separators trimmed. "Mfr. Part #" and "mfr part"
// normalize identically.
func NormalizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	pendingSpace := false
	for _, r := range name {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteRune(unicode.ToLower(r))
		} else {
			pendingSpace = true
		}
	}
	return b.String()
}

// Bag is a multiset of tokens: the "bag of words" the paper assembles from
// all values of an attribute across a set of products or offers (§3.1).
type Bag struct {
	counts map[string]int
	total  int
}

// NewBag returns an empty bag.
func NewBag() *Bag {
	return &Bag{counts: make(map[string]int)}
}

// Add inserts every token once.
func (b *Bag) Add(tokens ...string) {
	for _, tok := range tokens {
		b.counts[tok]++
		b.total++
	}
}

// AddValue tokenizes v with the default tokenizer and adds the tokens.
func (b *Bag) AddValue(v string) {
	b.Add(DefaultTokenizer.Tokenize(v)...)
}

// Count returns the multiplicity of tok.
func (b *Bag) Count(tok string) int { return b.counts[tok] }

// Tokens returns the distinct tokens in unspecified order.
func (b *Bag) Tokens() []string {
	out := make([]string, 0, len(b.counts))
	for tok := range b.counts {
		out = append(out, tok)
	}
	return out
}

// SortedTokens returns the distinct tokens in lexicographic order.
func (b *Bag) SortedTokens() []string {
	out := b.Tokens()
	sort.Strings(out)
	return out
}

// Distribution is a probability distribution over tokens:
// p(t) = count(t) / total, per the paper's definition in §3.1. It holds
// the supported tokens in ascending order and their probabilities as a
// parallel slice, so similarity measures over two distributions are
// merge-joins and every floating-point reduction runs in token order.
type Distribution struct {
	tokens []string
	probs  []float64
}

// Distribution converts the bag into a probability distribution, sorting
// its tokens once. An empty bag yields an empty (zero-support)
// distribution.
func (b *Bag) Distribution() Distribution {
	if b.total == 0 {
		return Distribution{}
	}
	tokens := b.SortedTokens()
	probs := make([]float64, len(tokens))
	inv := 1 / float64(b.total)
	for i, tok := range tokens {
		probs[i] = float64(b.counts[tok]) * inv
	}
	return Distribution{tokens: tokens, probs: probs}
}

// P returns the probability of tok (0 if unsupported).
func (d Distribution) P(tok string) float64 {
	if i, ok := slices.BinarySearch(d.tokens, tok); ok {
		return d.probs[i]
	}
	return 0
}

// Support returns the number of tokens with non-zero probability.
func (d Distribution) Support() int { return len(d.tokens) }

// Tokens returns the supported tokens in ascending order. The slice is
// shared with the distribution and must not be modified.
func (d Distribution) Tokens() []string { return d.tokens }

// Probs returns the probabilities parallel to Tokens. The slice is shared
// with the distribution and must not be modified.
func (d Distribution) Probs() []float64 { return d.probs }

// Jaccard returns the Jaccard coefficient |A∩B| / |A∪B| over the two
// supports, merged along their sorted token lists (§3.1: "The Jaccard
// coefficient considers only counts for the different terms"). It is 0
// when either support is empty.
func (d Distribution) Jaccard(other Distribution) float64 {
	a, b := d.tokens, other.tokens
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
