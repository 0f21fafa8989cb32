package distsim

import (
	"math"

	"prodsynth/internal/text"
)

// Corpus accumulates document frequencies so that TF-IDF weights can be
// computed for SoftTFIDF and for the COMA++-style instance matcher. A
// "document" is one attribute value (a short string); term frequencies are
// computed per value at comparison time.
//
// Corpus is not safe for concurrent mutation; build it fully before sharing.
type Corpus struct {
	docFreq map[string]int
	numDocs int
	tok     text.Tokenizer
}

// NewCorpus returns an empty corpus using the default tokenizer.
func NewCorpus() *Corpus {
	return &Corpus{docFreq: make(map[string]int)}
}

// AddDocument records one value into the document-frequency statistics.
func (c *Corpus) AddDocument(value string) {
	c.numDocs++
	seen := make(map[string]bool)
	for _, t := range c.tok.Tokenize(value) {
		if !seen[t] {
			seen[t] = true
			c.docFreq[t]++
		}
	}
}

// IDF returns the smoothed inverse document frequency of term t:
// log(1 + N/df). Unknown terms get the maximum IDF log(1+N).
func (c *Corpus) IDF(t string) float64 {
	if c.numDocs == 0 {
		return 0
	}
	df := c.docFreq[t]
	if df == 0 {
		df = 1
	}
	return math.Log(1 + float64(c.numDocs)/float64(df))
}

// Vector is a sparse TF-IDF vector with unit L2 norm (unless empty).
type Vector map[string]float64

// Vectorize converts a value into a normalized TF-IDF vector.
func (c *Corpus) Vectorize(value string) Vector {
	tf := make(map[string]int)
	for _, t := range c.tok.Tokenize(value) {
		tf[t]++
	}
	v := make(Vector, len(tf))
	var norm float64
	for t, n := range tf {
		w := float64(n) * c.IDF(t)
		v[t] = w
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for t := range v {
			v[t] /= norm
		}
	}
	return v
}

// Cosine returns the cosine similarity of two normalized vectors.
func Cosine(a, b Vector) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var dot float64
	for t, wa := range a {
		if wb, ok := b[t]; ok {
			dot += wa * wb
		}
	}
	// Clamp rounding overshoot.
	if dot > 1 {
		return 1
	}
	if dot < 0 {
		return 0
	}
	return dot
}

// SoftTFIDF computes the SoftTFIDF similarity of two values per Cohen,
// Ravikumar & Fienberg: like TF-IDF cosine, but tokens need not match
// exactly — a pair of tokens (s, t) with JaroWinkler(s,t) ≥ θ contributes
// weight(s)·weight(t)·sim(s,t) using the closest partner. DUMAS uses this as
// its field-value similarity (paper Appendix C).
type SoftTFIDF struct {
	Corpus *Corpus
	// Theta is the secondary-similarity threshold; Cohen et al. use 0.9.
	Theta float64
}

// Similarity returns the SoftTFIDF similarity of values a and b in [0,1].
func (s SoftTFIDF) Similarity(a, b string) float64 {
	theta := s.Theta
	if theta == 0 {
		theta = 0.9
	}
	va := s.Corpus.Vectorize(a)
	vb := s.Corpus.Vectorize(b)
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	var sum float64
	for ta, wa := range va {
		best := 0.0
		var bestW float64
		for tb, wb := range vb {
			var sim float64
			if ta == tb {
				sim = 1
			} else {
				sim = JaroWinkler(ta, tb)
			}
			if sim >= theta && sim > best {
				best = sim
				bestW = wb
			}
		}
		if best > 0 {
			sum += wa * bestW * best
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}
