package distsim

import (
	"math"
	"testing"
	"testing/quick"

	"prodsynth/internal/text"
)

func distOf(tokens ...string) text.Distribution {
	b := text.NewBag()
	b.Add(tokens...)
	return b.Distribution()
}

func TestJSIdenticalIsZero(t *testing.T) {
	// Paper Figure 5d: Speed vs RPM have identical distributions -> JS 0.00.
	speed := distOf("5400", "7200", "5400", "7200")
	rpm := distOf("5400", "7200", "5400", "7200")
	if got := JS(speed, rpm); math.Abs(got) > 1e-12 {
		t.Errorf("JS identical = %g, want 0", got)
	}
}

func TestJSDisjointIsLn2(t *testing.T) {
	// Paper Figure 5d: Speed vs Int.Type fully disjoint -> JS 0.69 (= ln 2).
	p := distOf("5400", "7200")
	q := distOf("ata", "ide", "133")
	if got := JS(p, q); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("JS disjoint = %g, want ln2=%g", got, math.Ln2)
	}
}

func TestJSPaperInterfaceExample(t *testing.T) {
	// Figure 5c/5d: Interface vs Int. Type -> 0.13 in the paper.
	iface := distOf("ata", "100", "ide", "133", "ide", "133", "ata", "133")
	intType := distOf("ata", "100", "mb", "s", "ide", "133", "mb", "s", "ide", "133", "mb", "s", "ata", "133", "mb", "s")
	got := JS(iface, intType)
	if got <= 0 || got >= 0.3 {
		t.Errorf("JS(Interface, Int.Type) = %g, want small positive (~0.13)", got)
	}
	// And it must be far closer than Interface vs RPM.
	rpm := distOf("5400", "7200", "5400", "7200")
	if far := JS(iface, rpm); far <= got {
		t.Errorf("JS(Interface,RPM)=%g should exceed JS(Interface,Int.Type)=%g", far, got)
	}
}

func TestJSSymmetricAndBounded(t *testing.T) {
	f := func(xs, ys []string) bool {
		p, q := distOf(xs...), distOf(ys...)
		a, b := JS(p, q), JS(q, p)
		return math.Abs(a-b) < 1e-9 && a >= 0 && a <= math.Ln2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSEmpty(t *testing.T) {
	empty := distOf()
	p := distOf("a")
	if got := JS(empty, p); got != math.Ln2 {
		t.Errorf("JS(empty,p) = %g, want ln2", got)
	}
	if got := JS(empty, empty); got != math.Ln2 {
		t.Errorf("JS(empty,empty) = %g, want ln2", got)
	}
}

func TestJSSimilarityOrientation(t *testing.T) {
	same := JSSimilarity(distOf("a", "b"), distOf("a", "b"))
	diff := JSSimilarity(distOf("a", "b"), distOf("c", "d"))
	if same <= diff {
		t.Errorf("similarity orientation wrong: same=%g diff=%g", same, diff)
	}
	if math.Abs(same-1) > 1e-9 || math.Abs(diff) > 1e-9 {
		t.Errorf("bounds wrong: same=%g diff=%g", same, diff)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"speed", "spend", 1},
		{"resolution", "resolutions", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		// Keep inputs short so quick doesn't explode runtime.
		if len(a) > 20 || len(b) > 20 || len(c) > 20 {
			return true
		}
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("", ""); got != 1 {
		t.Errorf("EditSimilarity empty = %g, want 1", got)
	}
	if got := EditSimilarity("abc", "abc"); got != 1 {
		t.Errorf("identical = %g, want 1", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %g, want 0", got)
	}
}

func TestJaro(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"", "", 1},
		{"a", "", 0},
		{"same", "same", 1},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("Jaro(%q,%q) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	// Standard reference value.
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961111) > 1e-4 {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %g, want 0.961111", got)
	}
	// Prefix boost: shared prefix must not lower the score.
	f := func(a, b string) bool {
		if len(a) > 30 || len(b) > 30 {
			return true
		}
		jw := JaroWinkler(a, b)
		return jw >= Jaro(a, b)-1e-12 && jw <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNGrams(t *testing.T) {
	g := NGrams("abcd", 3)
	if len(g) != 2 || !g["abc"] || !g["bcd"] {
		t.Errorf("NGrams(abcd,3) = %v", g)
	}
	short := NGrams("ab", 3)
	if len(short) != 1 || !short["ab"] {
		t.Errorf("NGrams(ab,3) = %v", short)
	}
	if len(NGrams("", 3)) != 0 {
		t.Errorf("NGrams empty should be empty")
	}
}

func TestTrigramSimilarity(t *testing.T) {
	if got := TrigramSimilarity("capacity", "capacity"); got != 1 {
		t.Errorf("identical = %g, want 1", got)
	}
	if got := TrigramSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %g, want 0", got)
	}
	// "Memory Technology" vs "Graphic Technology": similar names, the
	// COMA++ false-positive case cited in §5.2 — must score mid-high.
	got := TrigramSimilarity("Memory Technology", "Graphic Technology")
	if got < 0.3 || got > 0.95 {
		t.Errorf("TrigramSimilarity = %g, want mid-range", got)
	}
}

func TestCorpusIDF(t *testing.T) {
	c := NewCorpus()
	c.AddDocument("ata 100")
	c.AddDocument("ata 133")
	c.AddDocument("ide 133")
	// Three documents: an unknown term's IDF is log(1+3).
	if got := c.IDF("zzz"); got != math.Log(4) {
		t.Fatalf("IDF(unknown) = %g, want log(4) for 3 documents", got)
	}
	// "ata" appears in 2 docs, "ide" in 1 -> IDF(ide) > IDF(ata).
	if c.IDF("ide") <= c.IDF("ata") {
		t.Errorf("IDF ordering wrong: ide=%g ata=%g", c.IDF("ide"), c.IDF("ata"))
	}
	// Unknown terms get max IDF.
	if c.IDF("zzz") < c.IDF("ide") {
		t.Errorf("unknown IDF should be maximal")
	}
}

func TestVectorizeUnitNorm(t *testing.T) {
	c := NewCorpus()
	c.AddDocument("seagate barracuda 5400")
	c.AddDocument("western digital raptor")
	v := c.Vectorize("seagate barracuda hd")
	var norm float64
	for _, w := range v {
		norm += w * w
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("vector norm^2 = %g, want 1", norm)
	}
}

func TestCosine(t *testing.T) {
	c := NewCorpus()
	for _, d := range []string{"a b c", "a b", "c d", "x y"} {
		c.AddDocument(d)
	}
	va := c.Vectorize("a b c")
	if got := Cosine(va, va); math.Abs(got-1) > 1e-9 {
		t.Errorf("self cosine = %g, want 1", got)
	}
	vd := c.Vectorize("x y")
	if got := Cosine(va, vd); got != 0 {
		t.Errorf("disjoint cosine = %g, want 0", got)
	}
}

func TestSoftTFIDF(t *testing.T) {
	c := NewCorpus()
	for _, d := range []string{
		"seagate barracuda", "seagate momentus", "western digital raptor",
		"hitachi deskstar", "seagate cheetah",
	} {
		c.AddDocument(d)
	}
	s := SoftTFIDF{Corpus: c, Theta: 0.9}

	exact := s.Similarity("seagate barracuda", "seagate barracuda")
	if exact < 0.99 {
		t.Errorf("exact SoftTFIDF = %g, want ~1", exact)
	}
	// Typo within theta: "barracuda" vs "baracuda" are JW-close.
	typo := s.Similarity("seagate barracuda", "seagate baracuda")
	if typo <= 0.5 || typo > 1 {
		t.Errorf("typo SoftTFIDF = %g, want high", typo)
	}
	disjoint := s.Similarity("seagate barracuda", "xorp qwty")
	if disjoint > 0.1 {
		t.Errorf("disjoint SoftTFIDF = %g, want ~0", disjoint)
	}
	if got := s.Similarity("", "anything"); got != 0 {
		t.Errorf("empty SoftTFIDF = %g, want 0", got)
	}
}

func TestSoftTFIDFBounds(t *testing.T) {
	c := NewCorpus()
	c.AddDocument("alpha beta gamma")
	c.AddDocument("delta epsilon")
	s := SoftTFIDF{Corpus: c}
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		sim := s.Similarity(a, b)
		return sim >= 0 && sim <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJS(b *testing.B) {
	p := distOf("ata", "100", "ide", "133", "ide", "133", "ata", "133")
	q := distOf("ata", "100", "mb", "s", "ide", "133", "mb", "s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JS(p, q)
	}
}

func BenchmarkSoftTFIDF(b *testing.B) {
	c := NewCorpus()
	c.AddDocument("seagate barracuda 500gb sata")
	c.AddDocument("western digital raptor 150gb")
	s := SoftTFIDF{Corpus: c}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Similarity("seagate barracuda hd", "seagate barracuda 500 gb")
	}
}
