// Package distsim implements the distributional- and string-similarity
// measures used by the schema reconciliation component and the baseline
// matchers: Jensen-Shannon divergence over term distributions (paper
// §3.1), and the lexical similarities (edit distance, Jaro-Winkler, n-gram
// overlap, TF-IDF cosine, SoftTFIDF) required by the COMA++- and
// DUMAS-style baselines (paper §5.2, Appendices C and D).
package distsim

import (
	"math"
	"strings"

	"prodsynth/internal/text"
)

// cursor looks up probabilities in a distribution for tokens presented in
// ascending order, walking its sorted support once: the merge half of a
// merge-join.
type cursor struct {
	d text.Distribution
	j int
}

func (c *cursor) p(tok string) float64 {
	toks := c.d.Tokens()
	for c.j < len(toks) && toks[c.j] < tok {
		c.j++
	}
	if c.j < len(toks) && toks[c.j] == tok {
		return c.d.Probs()[c.j]
	}
	return 0
}

// JS returns the Jensen-Shannon divergence between p and q:
//
//	JS(p‖q) = ½·KL(p‖m) + ½·KL(q‖m),  m = ½p + ½q
//
// JS is symmetric, finite, and bounded by ln 2 (≈0.693, matching the 0.69
// worst-case scores in the paper's Figure 5d). Two identical distributions
// have JS 0. If either distribution is empty, JS returns ln 2 (maximally
// dissimilar), so that attributes with no observed values never look similar.
func JS(p, q text.Distribution) float64 {
	if p.Support() == 0 || q.Support() == 0 {
		return math.Ln2
	}
	// p's terms in ascending token order, then q's: the summation order
	// is part of the result's bits.
	sum := halfKL(0, p, q)
	sum = halfKL(sum, q, p)
	// Guard against -0 and tiny negative rounding.
	if sum < 0 {
		return 0
	}
	if sum > math.Ln2 {
		return math.Ln2
	}
	return sum
}

// halfKL adds ½·KL(a‖m), m(t) = (a(t)+b(t))/2, to sum term by term over
// a's support (terms outside it contribute 0), merging b along.
func halfKL(sum float64, a, b text.Distribution) float64 {
	bc := cursor{d: b}
	for i, tok := range a.Tokens() {
		at := a.Probs()[i]
		mt := (at + bc.p(tok)) / 2
		sum += 0.5 * at * math.Log(at/mt)
	}
	return sum
}

// JSSimilarity maps JS divergence onto [0,1] with 1 meaning identical
// distributions: 1 - JS/ln2. This is the orientation used for classifier
// features, where larger must mean more similar.
func JSSimilarity(p, q text.Distribution) float64 {
	return 1 - JS(p, q)/math.Ln2
}

// EditDistance returns the Levenshtein distance between a and b (unit costs),
// operating on runes. It is one of the COMA++ name matchers.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditSimilarity normalizes edit distance to [0,1]:
// 1 - dist/max(len(a),len(b)). Two empty strings have similarity 1.
func EditSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(EditDistance(a, b))/float64(m)
}

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max2(0, i-window)
		hi := min2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale 0.1 and maximum prefix length 4. Used inside SoftTFIDF per Cohen et
// al., which DUMAS adopts.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// NGrams returns the set of character n-grams of s (n ≥ 1). Strings shorter
// than n yield a single gram equal to the whole string (COMA++ convention so
// short names are still comparable).
func NGrams(s string, n int) map[string]bool {
	out := make(map[string]bool)
	r := []rune(s)
	if len(r) == 0 {
		return out
	}
	if len(r) < n {
		out[string(r)] = true
		return out
	}
	for i := 0; i+n <= len(r); i++ {
		out[string(r[i:i+n])] = true
	}
	return out
}

// TrigramSimilarity returns the Dice coefficient over character trigram sets:
// 2|A∩B| / (|A|+|B|). One of the COMA++ name matchers.
func TrigramSimilarity(a, b string) float64 {
	ga, gb := NGrams(strings.ToLower(a), 3), NGrams(strings.ToLower(b), 3)
	if len(ga) == 0 && len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	den := len(ga) + len(gb)
	if den == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(den)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }
