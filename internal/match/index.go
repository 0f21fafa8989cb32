package match

import (
	"math"
	"sync"

	"prodsynth/internal/catalog"
	"prodsynth/internal/text"
)

// TitleIndex is an inverted index from tokens to products, used to match
// offer titles against structured product records at scale: instead of
// scanning every product in the category (O(|products|) per offer), a
// lookup touches only the posting lists of the title's tokens.
//
// Scoring is weighted token containment: each title token found in a
// product's token set contributes its IDF weight; the score is the
// fraction of the title's total IDF mass covered by the product. Rare
// tokens (model numbers, part codes) therefore dominate, which is what
// makes title matching work — "Hitachi" appears in hundreds of products,
// "HDT725050VLA360" in one.
//
// The category vocabulary is interned into a text.Dict, so all per-token
// state is held in flat arrays indexed by dense token ID: postings and
// IDF weights are array loads on the match path, not string-keyed map
// probes, and match-time accumulation runs over a pooled dense scratch
// array with a single argmax pass instead of a map plus sort.
//
// Build the index once per category with NewTitleIndex, or derive an
// index covering newly appended products from an existing one with
// extend; Match is safe for concurrent use afterwards.
type TitleIndex struct {
	dict     *text.Dict
	postings [][]int32 // token ID -> product ordinals (ascending)
	ids      []string  // ordinal -> product ID
	numDocs  int

	// IDF weights derive from posting-list lengths and are recomputed
	// lazily on first Match, so a chain of incremental extends pays the
	// O(vocabulary) recompute once, not per delta.
	idfOnce sync.Once
	idf     []float64 // token ID -> IDF weight
	maxIDF  float64   // IDF charged to tokens the catalog has never seen
}

// NewTitleIndex indexes the token sets of the given products' attribute
// values.
func NewTitleIndex(products []catalog.Product) *TitleIndex {
	return buildIndex(nil, products)
}

// extend returns an index covering prev's products plus added, sharing
// prev's interned vocabulary and posting lists: added products append to
// the existing structures instead of re-tokenizing the whole category.
// Token IDs, posting order, and therefore match output are identical to a
// cold build over the concatenated product list. prev stays valid for
// concurrent Match calls (appends touch only slots past its lengths), but
// extends of the same lineage must be serialized by the caller — the
// registry does so under its lock via the entry chain.
func (idx *TitleIndex) extend(added []catalog.Product) *TitleIndex {
	if len(added) == 0 {
		return idx
	}
	return buildIndex(idx, added)
}

func buildIndex(prev *TitleIndex, added []catalog.Product) *TitleIndex {
	idx := &TitleIndex{}
	var b *text.DictBuilder
	if prev != nil {
		b = prev.dict.Extend()
		idx.ids = prev.ids
		idx.postings = append(make([][]int32, 0, len(prev.postings)+16), prev.postings...)
	} else {
		b = text.NewDictBuilder()
	}

	var tokIDs []uint32
	var buf []byte
	// lastOrd[id] remembers the last ordinal inserted into postings[id]:
	// O(1) per-product dedup (each product contributes one posting per
	// distinct token) without a per-product set.
	lastOrd := make([]int32, b.Len())
	for i := range lastOrd {
		lastOrd[i] = -1
	}
	for _, p := range added {
		ord := int32(len(idx.ids))
		idx.ids = append(idx.ids, p.ID)
		tokIDs = tokIDs[:0]
		for _, av := range p.Spec {
			tokIDs, buf = text.DefaultTokenizer.TokenizeIDs(b, tokIDs, buf, av.Value)
		}
		for len(idx.postings) < b.Len() {
			idx.postings = append(idx.postings, nil)
			lastOrd = append(lastOrd, -1)
		}
		for _, id := range tokIDs {
			if lastOrd[id] == ord {
				continue
			}
			lastOrd[id] = ord
			idx.postings[id] = append(idx.postings[id], ord)
		}
	}
	idx.dict = b.Build()
	idx.numDocs = len(idx.ids)
	return idx
}

func (idx *TitleIndex) ensureIDF() {
	idx.idfOnce.Do(func() {
		n := float64(idx.numDocs)
		idf := make([]float64, len(idx.postings))
		for id, post := range idx.postings {
			if len(post) > 0 {
				idf[id] = math.Log(1 + n/float64(len(post)))
			}
		}
		idx.maxIDF = math.Log(1 + n)
		idx.idf = idf
	})
}

// Len returns the number of indexed products.
func (idx *TitleIndex) Len() int { return idx.numDocs }

// matchScratch is the pooled per-call state of TitleIndex.Match. mass and
// gen are dense per-ordinal arrays sized to the largest index seen by this
// scratch; gen stamps make mass entries from earlier calls invisible
// without clearing the array between calls.
type matchScratch struct {
	buf     []byte   // token assembly scratch
	known   []uint32 // distinct indexed title-token IDs, in title order
	unknown []byte   // distinct unindexed title tokens, concatenated
	bounds  []int    // unknown segment boundaries (bounds[i]:bounds[i+1])
	mass    []float64
	gen     []uint32
	cur     uint32
}

var scratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// Match returns the best-scoring product for the title and its score in
// [0,1], or ("", 0) when the index is empty or the title has no tokens.
// Ties break toward the product indexed first, keeping results
// deterministic.
func (idx *TitleIndex) Match(title string) (productID string, score float64) {
	if idx.numDocs == 0 {
		return "", 0
	}
	idx.ensureIDF()

	s := scratchPool.Get().(*matchScratch)
	if cap(s.mass) < idx.numDocs {
		s.mass = make([]float64, idx.numDocs)
		s.gen = make([]uint32, idx.numDocs)
		s.cur = 0
	}
	mass := s.mass[:idx.numDocs]
	gen := s.gen[:idx.numDocs]
	if s.cur == math.MaxUint32 {
		clear(s.gen)
		s.cur = 0
	}
	s.cur++
	cur := s.cur
	s.known = s.known[:0]
	s.unknown = s.unknown[:0]
	s.bounds = append(s.bounds[:0], 0)

	// One pass over the title's distinct tokens (first-occurrence order,
	// exactly as the pre-interning implementation deduplicated), tracking
	// the argmax inline: mass only grows, and ties resolve toward the
	// smaller ordinal at every update, so the final (bestOrd, bestMass) is
	// the smallest ordinal achieving the maximum — the same product the
	// old sort-then-scan argmax selected.
	var totalMass, bestMass float64
	bestOrd := int32(-1)
	sc := text.DefaultTokenizer.Scanner(s.buf, title)
scan:
	for {
		tok, ok := sc.Next()
		if !ok {
			break
		}
		if id, ok := idx.dict.LookupBytes(tok); ok && int(id) < len(idx.postings) {
			for _, k := range s.known {
				if k == id {
					continue scan
				}
			}
			s.known = append(s.known, id)
			w := idx.idf[id]
			totalMass += w
			for _, ord := range idx.postings[id] {
				m := w
				if gen[ord] == cur {
					m = mass[ord] + w
				}
				gen[ord] = cur
				mass[ord] = m
				if m > bestMass || (m == bestMass && ord < bestOrd) {
					bestMass = m
					bestOrd = ord
				}
			}
			continue
		}
		// Unknown tokens still count toward the denominator with the
		// maximum IDF: a title full of tokens the catalog has never seen
		// should not match anything confidently. Distinct unknown
		// spellings each count once, so they deduplicate by bytes.
		for i := 0; i+1 < len(s.bounds); i++ {
			if string(s.unknown[s.bounds[i]:s.bounds[i+1]]) == string(tok) {
				continue scan
			}
		}
		s.unknown = append(s.unknown, tok...)
		s.bounds = append(s.bounds, len(s.unknown))
		totalMass += idx.maxIDF
	}
	s.buf = sc.Buffer()

	if bestOrd >= 0 {
		productID = idx.ids[bestOrd]
		score = bestMass / totalMass
	}
	scratchPool.Put(s)
	return productID, score
}
