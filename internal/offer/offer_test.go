package offer

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"prodsynth/internal/catalog"
)

func sampleOffers() []Offer {
	return []Offer{
		{
			ID: "o1", Merchant: "amazon", CategoryID: "computing/hard-drives",
			Title: "Hitachi Deskstar T7K500 - hard drive - 500 GB - SATA-300",
			URL:   "http://amazon.example/o1", PriceCents: 6700,
			Spec: catalog.Spec{
				{Name: "Brand", Value: "Hitachi"},
				{Name: "Hard Disk Size", Value: "500"},
			},
		},
		{
			ID: "o2", Merchant: "microwarehouse", CategoryID: "computing/hard-drives",
			Title: "Hitachi 500GB S/ATA2 7200rpm", URL: "http://mw.example/o2", PriceCents: 7100,
			Spec: catalog.Spec{
				{Name: "Manufacturer", Value: "Hitachi"},
				{Name: "Capacity", Value: "500 GB"},
			},
		},
		{
			ID: "o3", Merchant: "amazon", CategoryID: "cameras/digital",
			Title: "Canon EOS", URL: "http://amazon.example/o3", PriceCents: 49900,
		},
	}
}

func TestSetIndexing(t *testing.T) {
	s := NewSet(sampleOffers())
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.ByCategory("computing/hard-drives"); len(got) != 2 {
		t.Errorf("ByCategory = %d offers", len(got))
	}
	if got := s.ByMerchant("amazon"); len(got) != 2 || got[0].ID != "o1" || got[1].ID != "o3" {
		t.Errorf("ByMerchant = %v", got)
	}
	if got := s.Categories(); !reflect.DeepEqual(got, []string{"cameras/digital", "computing/hard-drives"}) {
		t.Errorf("Categories = %v", got)
	}
	keys := s.SchemaKeys()
	if len(keys) != 3 {
		t.Errorf("SchemaKeys = %v", keys)
	}
	if keys[0].String() != "amazon@cameras/digital" {
		t.Errorf("key order/String = %v", keys[0])
	}
}

func TestMerchantAttributes(t *testing.T) {
	s := NewSet(sampleOffers())
	got := s.MerchantAttributes(SchemaKey{Merchant: "microwarehouse", CategoryID: "computing/hard-drives"})
	want := []string{"Capacity", "Manufacturer"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MerchantAttributes = %v, want %v", got, want)
	}
	if got := s.MerchantAttributes(SchemaKey{Merchant: "none", CategoryID: "x"}); len(got) != 0 {
		t.Errorf("missing key should be empty, got %v", got)
	}
}

func TestOfferClone(t *testing.T) {
	o := sampleOffers()[0]
	c := o.Clone()
	c.Spec.Set("Brand", "MUTATED")
	if v, _ := o.Spec.Get("Brand"); v != "Hitachi" {
		t.Error("Clone aliased spec")
	}
}

func TestFeedRoundTrip(t *testing.T) {
	offers := sampleOffers()
	var buf bytes.Buffer
	if err := WriteFeed(&buf, offers); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, offers) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, offers)
	}
}

func TestFeedRoundTripQuick(t *testing.T) {
	f := func(id, merchant, title string, price int64, attr, val string) bool {
		if price < 0 {
			price = -price
		}
		in := []Offer{{
			ID: sanitizeField(id), Merchant: sanitizeField(merchant),
			CategoryID: "c", Title: sanitizeField(title), PriceCents: price,
			URL: "http://x", Spec: catalog.Spec{{Name: "a", Value: "v"}},
		}}
		// attr/val go through the spec encoder, which strips structure chars.
		_ = attr
		_ = val
		var buf bytes.Buffer
		if err := WriteFeed(&buf, in); err != nil {
			return false
		}
		out, err := ReadFeed(&buf)
		return err == nil && len(out) == 1 && out[0].PriceCents == price
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFeedSanitization(t *testing.T) {
	offers := []Offer{{
		ID: "o1", Merchant: "m", CategoryID: "c",
		Title: "has\ttab and\nnewline", PriceCents: 1, URL: "u",
		Spec: catalog.Spec{{Name: "A=B|C", Value: "v=w|x"}},
	}}
	var buf bytes.Buffer
	if err := WriteFeed(&buf, offers); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(got[0].Title, "\t\n") {
		t.Errorf("title not sanitized: %q", got[0].Title)
	}
	if len(got[0].Spec) != 1 {
		t.Fatalf("spec = %v", got[0].Spec)
	}
}

func TestReadFeedErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "nope\no1\tm\tc\tt\t1\tu\ti\t"},
		{"short row", "id\tmerchant\tcategory\ttitle\tprice_cents\turl\timage\tspec\no1\tm\n"},
		{"bad price", "id\tmerchant\tcategory\ttitle\tprice_cents\turl\timage\tspec\no1\tm\tc\tt\tNaN\tu\ti\t\n"},
		{"bad spec", "id\tmerchant\tcategory\ttitle\tprice_cents\turl\timage\tspec\no1\tm\tc\tt\t1\tu\ti\tnoequals\n"},
	}
	for _, c := range cases {
		if _, err := ReadFeed(strings.NewReader(c.in)); !errors.Is(err, ErrBadFeed) {
			t.Errorf("%s: err = %v, want ErrBadFeed", c.name, err)
		}
	}
}

func TestReadFeedSkipsBlankLines(t *testing.T) {
	in := "id\tmerchant\tcategory\ttitle\tprice_cents\turl\timage\tspec\n\no1\tm\tc\tt\t1\tu\ti\t\n"
	got, err := ReadFeed(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Errorf("got %v, err %v", got, err)
	}
}

func BenchmarkFeedRoundTrip(b *testing.B) {
	offers := make([]Offer, 1000)
	for i := range offers {
		offers[i] = sampleOffers()[i%3]
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFeed(&buf, offers); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFeed(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
