package distsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refDist is the map-backed distribution JS ran on before it became a
// merge-join: p(t) = count(t) · (1/total), keyed by token.
type refDist map[string]float64

func refDistOf(tokens ...string) refDist {
	counts := make(map[string]int)
	for _, tok := range tokens {
		counts[tok]++
	}
	d := make(refDist, len(counts))
	if len(tokens) == 0 {
		return d
	}
	inv := 1 / float64(len(tokens))
	for tok, n := range counts {
		d[tok] = float64(n) * inv
	}
	return d
}

func (d refDist) sorted() []string {
	out := make([]string, 0, len(d))
	for tok := range d {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// refJS is a verbatim copy of the map+sort JS: every call re-sorts the
// supports and looks each probability up by key.
func refJS(p, q refDist) float64 {
	if len(p) == 0 || len(q) == 0 {
		return math.Ln2
	}
	var sum float64
	for _, tok := range p.sorted() {
		pt := p[tok]
		mt := (pt + q[tok]) / 2
		sum += 0.5 * pt * math.Log(pt/mt)
	}
	for _, tok := range q.sorted() {
		qt := q[tok]
		mt := (p[tok] + qt) / 2
		sum += 0.5 * qt * math.Log(qt/mt)
	}
	if sum < 0 {
		return 0
	}
	if sum > math.Ln2 {
		return math.Ln2
	}
	return sum
}

// TestMergeJoinBitIdentical is the contract of the merge-join rewrite:
// JS over sorted supports returns the same float64 bits as the
// map+sort reference, on the edge cases and on random distributions.
func TestMergeJoinBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		p, q []string
	}{
		{"both empty", nil, nil},
		{"p empty", nil, []string{"a", "b"}},
		{"q empty", []string{"a"}, nil},
		{"disjoint", []string{"5400", "7200", "7200"}, []string{"ata", "ide", "133"}},
		{"identical", []string{"a", "b", "b", "c"}, []string{"a", "b", "b", "c"}},
		{"same support", []string{"a", "b", "b"}, []string{"a", "a", "b"}},
		{"single token", []string{"x"}, []string{"x"}},
		{"single vs many", []string{"x"}, []string{"w", "x", "y", "x"}},
		{"interleaved", []string{"a", "c", "e", "g"}, []string{"b", "c", "d", "g", "h"}},
		{"q before p", []string{"m", "n"}, []string{"a", "b", "m"}},
		{"q after p", []string{"a", "b", "m"}, []string{"m", "y", "z"}},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 2000; i++ {
		cases = append(cases, struct {
			name string
			p, q []string
		}{fmt.Sprintf("random %d", i), randomTokens(rng), randomTokens(rng)})
	}
	for _, c := range cases {
		p, q := distOf(c.p...), distOf(c.q...)
		rp, rq := refDistOf(c.p...), refDistOf(c.q...)
		for _, f := range []struct {
			name     string
			got, ref float64
		}{
			{"JS(p,q)", JS(p, q), refJS(rp, rq)},
			{"JS(q,p)", JS(q, p), refJS(rq, rp)},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.ref) {
				t.Errorf("%s: %s = %v (%#x), reference %v (%#x)", c.name, f.name,
					f.got, math.Float64bits(f.got), f.ref, math.Float64bits(f.ref))
			}
		}
		for _, tok := range append(append([]string{"absent"}, c.p...), c.q...) {
			if got, ref := p.P(tok), rp[tok]; math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("%s: P(%q) = %v, reference %v", c.name, tok, got, ref)
			}
		}
	}
}

// randomTokens draws up to 12 tokens from a small vocabulary, so random
// pairs overlap partially as attribute value bags do.
func randomTokens(rng *rand.Rand) []string {
	out := make([]string, rng.Intn(13))
	for i := range out {
		out[i] = fmt.Sprintf("t%02d", rng.Intn(16))
	}
	return out
}
