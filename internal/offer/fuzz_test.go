package offer

import (
	"bytes"
	"testing"

	"prodsynth/internal/catalog"
)

// FuzzFeedRoundTrip checks that the feed writer's output is a fixed point
// of read-then-write: WriteFeed → ReadFeed → WriteFeed gives the same
// bytes for any offer fields and spec pairs. The writer sanitizes the
// characters the TSV structure reserves, so whatever it emits must parse
// back to offers that serialize identically.
func FuzzFeedRoundTrip(f *testing.F) {
	f.Add("o1", "amazon", "computing/hard-drives", "Hitachi Deskstar 500 GB", int64(6700),
		"http://amazon.example/o1", "", "Brand", "Hitachi", "Capacity", "500 GB")
	f.Add("o\t2", "m\n", "", "tab\tand\nnewline", int64(-1), "", "img", "A=B|C", "v=w|x", "", "")
	f.Fuzz(func(t *testing.T, id, merchant, category, title string, price int64, url, image, name1, value1, name2, value2 string) {
		offers := []Offer{
			{
				ID: id, Merchant: merchant, CategoryID: category, Title: title,
				PriceCents: price, URL: url, ImageURL: image,
				Spec: catalog.Spec{{Name: name1, Value: value1}, {Name: name2, Value: value2}},
			},
			{ID: id, Merchant: merchant, CategoryID: category, Title: title},
		}
		var first bytes.Buffer
		if err := WriteFeed(&first, offers); err != nil {
			t.Fatal(err)
		}
		read, err := ReadFeed(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadFeed rejects WriteFeed output: %v\n%q", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteFeed(&second, read); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the feed:\nfirst  %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}
