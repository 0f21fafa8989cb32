package text

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"ATA 100 mb/s", []string{"ata", "100", "mb", "s"}},
		{"500GB", []string{"500", "gb"}},
		{"Serial ATA-300", []string{"serial", "ata", "300"}},
		{"", nil},
		{"   ", nil},
		{"Windows Vista", []string{"windows", "vista"}},
		{"3.5\" x 1/3H", []string{"3", "5", "x", "1", "3", "h"}},
		{"HDT725050VLA360", []string{"hdt", "725050", "vla", "360"}},
		{"7200 rpm", []string{"7200", "rpm"}},
	}
	for _, c := range cases {
		got := DefaultTokenizer.Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeKeepAlphaNumJoined(t *testing.T) {
	tok := Tokenizer{KeepAlphaNumJoined: true}
	got := tok.Tokenize("500GB SATA2")
	want := []string{"500gb", "sata2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeStopWords(t *testing.T) {
	tok := Tokenizer{StopWords: map[string]bool{"the": true, "a": true}}
	got := tok.Tokenize("The Quick a Fox")
	want := []string{"quick", "fox"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := DefaultTokenizer.Tokenize("Caché Größe")
	want := []string{"caché", "größe"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"Mfr. Part #", "mfr part"},
		{"  mfr   part ", "mfr part"},
		{"MPN", "mpn"},
		{"Storage Hard Drive / Capacity", "storage hard drive capacity"},
		{"", ""},
		{"###", ""},
	}
	for _, c := range cases {
		if got := NormalizeName(c.in); got != c.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeNameIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeName(s)
		return NormalizeName(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagCounts(t *testing.T) {
	b := NewBag()
	b.AddValue("ATA 100")
	b.AddValue("IDE 133")
	b.AddValue("IDE 133")
	b.AddValue("ATA 133")

	if got := b.Distribution().P("133"); got != 3.0/8 {
		t.Errorf("P(133) = %g, want 3/8 of 8 occurrences", got)
	}
	if got := b.Count("133"); got != 3 {
		t.Errorf("Count(133) = %d, want 3", got)
	}
	if got := b.Count("ata"); got != 2 {
		t.Errorf("Count(ata) = %d, want 2", got)
	}
	if got := len(b.Tokens()); got != 4 {
		t.Errorf("distinct tokens = %d, want 4", got)
	}
}

// jaccard is the Jaccard coefficient of two bags' supports.
func jaccard(a, b *Bag) float64 { return a.Distribution().Jaccard(b.Distribution()) }

func TestBagJaccard(t *testing.T) {
	a := NewBag()
	a.Add("ata", "100", "ide", "133")
	b := NewBag()
	b.Add("ata", "100", "ide", "133", "mb", "s")

	got := jaccard(a, b)
	want := 4.0 / 6.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Jaccard = %g, want %g", got, want)
	}
	if jaccard(a, a) != 1 {
		t.Errorf("self Jaccard = %g, want 1", jaccard(a, a))
	}
	empty := NewBag()
	if jaccard(empty, empty) != 0 {
		t.Errorf("empty Jaccard = %g, want 0", jaccard(empty, empty))
	}
	if jaccard(a, empty) != 0 {
		t.Errorf("Jaccard with an empty bag = %g, want 0", jaccard(a, empty))
	}
}

func TestBagJaccardSymmetric(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := NewBag(), NewBag()
		a.Add(xs...)
		b.Add(ys...)
		return math.Abs(jaccard(a, b)-jaccard(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagJaccardBounds(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := NewBag(), NewBag()
		a.Add(xs...)
		b.Add(ys...)
		j := jaccard(a, b)
		return j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mass is the total probability of d, summed in token order.
func mass(d Distribution) float64 {
	var sum float64
	for _, p := range d.Probs() {
		sum += p
	}
	return sum
}

func TestDistribution(t *testing.T) {
	b := NewBag()
	b.Add("speed", "speed", "rpm", "interface")
	d := b.Distribution()
	if got := d.P("speed"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(speed) = %g, want 0.5", got)
	}
	if got := d.P("missing"); got != 0 {
		t.Errorf("P(missing) = %g, want 0", got)
	}
	if got := d.Support(); got != 3 {
		t.Errorf("Support = %d, want 3", got)
	}
	if got := mass(d); math.Abs(got-1) > 1e-12 {
		t.Errorf("Mass = %g, want 1", got)
	}
}

func TestDistributionEmptyBag(t *testing.T) {
	d := NewBag().Distribution()
	if d.Support() != 0 || mass(d) != 0 {
		t.Errorf("empty distribution has support=%d mass=%g", d.Support(), mass(d))
	}
}

func TestDistributionSumsToOne(t *testing.T) {
	f := func(tokens []string) bool {
		if len(tokens) == 0 {
			return true
		}
		b := NewBag()
		b.Add(tokens...)
		return math.Abs(mass(b.Distribution())-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagTokensSorted(t *testing.T) {
	b := NewBag()
	b.Add("z", "a", "m")
	got := b.SortedTokens()
	if !sort.StringsAreSorted(got) {
		t.Errorf("SortedTokens not sorted: %v", got)
	}
	if len(got) != 3 {
		t.Errorf("len = %d, want 3", len(got))
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := "Hitachi 500GB S/ATA2 7200rpm Cache: 16MB, SATA 300 Hard Drive"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DefaultTokenizer.Tokenize(s)
	}
}

func BenchmarkBagDistribution(b *testing.B) {
	bag := NewBag()
	for i := 0; i < 100; i++ {
		bag.AddValue("Serial ATA 300 7200 rpm 16 MB cache")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bag.Distribution()
	}
}
