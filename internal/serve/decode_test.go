package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"prodsynth"
)

// jsonDecode is the fallback's decode of body, the reference decodeRequest
// is held to.
func jsonDecode(body []byte) (SynthesizeRequest, error) {
	var req SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// checkAgainstJSON fails when decodeRequest accepts body and encoding/json
// refuses it or decodes another value. It reports whether decodeRequest
// accepted.
func checkAgainstJSON(t *testing.T, body []byte) bool {
	t.Helper()
	var fast SynthesizeRequest
	if !decodeRequest(body, &fast) {
		return false
	}
	want, err := jsonDecode(body)
	if err != nil {
		t.Fatalf("decodeRequest accepted %q, encoding/json refused it: %v", body, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("decodeRequest(%q) = %#v, encoding/json decodes %#v", body, fast, want)
	}
	return true
}

// FuzzDecodeRequest: whenever the one-pass decoder accepts a body,
// encoding/json with unknown fields refused accepts it too and decodes a
// reflect.DeepEqual value, nil against empty slices included.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
	})
}

// fuzzCorpus reads the checked-in seed corpus of FuzzDecodeRequest, by
// file name.
func fuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeRequest")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(quoted, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		body, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(body)
	}
	return out
}

// TestDecodeRequestSubset pins which corpus bodies the one-pass decoder
// takes and which it leaves to encoding/json.
func TestDecodeRequestSubset(t *testing.T) {
	accepted := map[string]bool{
		"canonical":        true,
		"empty_spec":       true,
		"price_neg_zero":   true,
		"trailing_garbage": true,
		"case_variant_key": false,
		"null_value":       false,
		"duplicate_key":    false,
		"surrogate_pair":   false,
		"lone_surrogate":   false,
		"invalid_utf8":     false,
		"price_fraction":   false,
		"price_exponent":   false,
		"price_overflow":   false,
		"unknown_field":    false,
	}
	corpus := fuzzCorpus(t)
	for name, want := range accepted {
		body, ok := corpus[name]
		if !ok {
			t.Errorf("corpus has no %s", name)
			continue
		}
		if got := checkAgainstJSON(t, body); got != want {
			t.Errorf("%s: decodeRequest accepted = %v, want %v", name, got, want)
		}
	}
	if len(corpus) != len(accepted) {
		t.Errorf("corpus has %d bodies, the table %d", len(corpus), len(accepted))
	}
}

// TestDecodeRequestEdges covers what the corpus does not: the int64
// bounds, every escape, whitespace, and truncation at each byte.
func TestDecodeRequestEdges(t *testing.T) {
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"timeout_ms":9223372036854775807}`, true},
		{`{"timeout_ms":-9223372036854775808}`, true},
		{`{"timeout_ms":-9223372036854775809}`, false},
		{`{"timeout_ms":01}`, false},
		{`{"timeout_ms":-}`, false},
		{`{"timeout_ms":"1"}`, false},
		{` 	{ "pages" : [ { "url" : "a\"\\\/\b\f\n\r\t\u0000é￿" , "html" : "" } ] }` + "\n", true},
		{`{"pages":[{"url":"\x"}]}`, false},
		{`{"pages":[{"url":"\u12"}]}`, false},
		{`{"pages":[{"url":"\u12G4"}]}`, false},
		{`{"pages":[{"url":"\udc00"}]}`, false},
		{"{\"pages\":[{\"url\":\"a\tb\"}]}", false},
		{"{\"pages\":[{\"url\":\"\xed\xa0\x80\"}]}", false},
		{`{"pages":[{"url":"a"},]}`, false},
		{`{"pages":[{"url":"a"}],}`, false},
		{`{"offers":{}}`, false},
		{`{"ofers":[]}`, false},
		{`{"offers":[],"offers":[]}`, false},
		{`{"offers":[{"spec":[{"name":"a","name":"b"}]}]}`, false},
		{`{}`, true},
		{`[]`, false},
		{``, false},
	} {
		if got := checkAgainstJSON(t, []byte(tc.body)); got != tc.want {
			t.Errorf("decodeRequest(%q) accepted = %v, want %v", tc.body, got, tc.want)
		}
	}
	canonical := fuzzCorpus(t)["canonical"]
	for n := range len(canonical) {
		if checkAgainstJSON(t, canonical[:n]) {
			t.Errorf("decodeRequest accepted the canonical body cut to %d bytes", n)
		}
	}
}

// marketplaceBodies marshals a marketplace's incoming offers as requests
// of size consecutive offers each, with exactly their own pages, the way
// a client posts them.
func marketplaceBodies(tb testing.TB, ds *prodsynth.Marketplace, size int) [][]byte {
	tb.Helper()
	var out [][]byte
	for lo := 0; lo+size <= len(ds.IncomingOffers); lo += size {
		offers := ds.IncomingOffers[lo : lo+size]
		pages := map[string]string{}
		for _, o := range offers {
			if page, ok := ds.Pages[o.URL]; ok {
				pages[o.URL] = page
			}
		}
		body, err := json.Marshal(SynthesizeRequest{Offers: WireOffers(offers), Pages: WirePages(pages)})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	if len(out) == 0 {
		tb.Fatalf("marketplace has %d incoming offers, fewer than one %d-offer request", len(ds.IncomingOffers), size)
	}
	return out
}

func smallMarketplace() *prodsynth.Marketplace {
	return prodsynth.GenerateMarketplace(prodsynth.MarketplaceConfig{
		Seed:                2,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 40,
		Merchants:           60,
	})
}

// TestDecodeRequestMatchesJSONOnMarketplace decodes every 16- and
// 256-offer request body of a small marketplace both ways: the one-pass
// decoder must take each of them and decode what encoding/json does.
func TestDecodeRequestMatchesJSONOnMarketplace(t *testing.T) {
	ds := smallMarketplace()
	for _, size := range []int{16, 256} {
		for i, body := range marketplaceBodies(t, ds, size) {
			if !checkAgainstJSON(t, body) {
				t.Fatalf("%d-offer body %d: decodeRequest fell back on a json.Marshal body", size, i)
			}
		}
	}
}

// BenchmarkDecodeRequest times encoding/json, as the daemon ran it before,
// against the one-pass decoder on a 16- and a 256-offer body.
func BenchmarkDecodeRequest(b *testing.B) {
	ds := smallMarketplace()
	for _, size := range []struct {
		name   string
		offers int
	}{{"small", 16}, {"large", 256}} {
		body := marketplaceBodies(b, ds, size.offers)[0]
		b.Run(size.name+"/encoding_json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := jsonDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/one_pass", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req SynthesizeRequest
				if !decodeRequest(body, &req) {
					b.Fatal("decodeRequest fell back")
				}
			}
		})
	}
}
