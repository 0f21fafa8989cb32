package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// refDecodeJSON is a verbatim copy of decodeJSON as it was before
// /v1/synthesize bodies were read whole and decoded in one pass, when
// every body went straight to encoding/json.
// TestDecodeSynthesizeMatchesReference holds decodeSynthesize to it.
func refDecodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decode request: "+err.Error())
		return false
	}
	return true
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDecodeSynthesizeMatchesReference runs decodeSynthesize and the
// reference over the same bodies: the fuzz corpus, two marketplace
// requests, malformed and empty bodies, bodies one byte over the cap, and
// bodies whose client went away. The outcome, the status, the response
// bytes and the decoded value must all match.
func TestDecodeSynthesizeMatchesReference(t *testing.T) {
	bodies := map[string]func() io.Reader{}
	fixed := func(b []byte) func() io.Reader {
		return func() io.Reader { return strings.NewReader(string(b)) }
	}
	for name, b := range fuzzCorpus(t) {
		bodies["corpus/"+name] = fixed(b)
	}
	ds := smallMarketplace()
	bodies["marketplace/16"] = fixed(marketplaceBodies(t, ds, 16)[0])
	bodies["marketplace/256"] = fixed(marketplaceBodies(t, ds, 256)[0])
	for name, b := range map[string]string{
		"empty":           ``,
		"whitespace":      " \n\t ",
		"truncated":       `{"offers": [`,
		"wrong_type":      `{"offers":[{"id":1}]}`,
		"unknown_field":   `{"offerz": []}`,
		"bad_literal":     `nul`,
		"not_an_object":   `[1, 2]`,
		"second_value":    `{"offers":[]} {"offers":`,
		"bad_escape":      `{"pages":[{"url":"\q"}]}`,
		"control_in_text": "{\"pages\":[{\"url\":\"a\x01\"}]}",
	} {
		bodies["malformed/"+name] = fixed([]byte(b))
	}
	over := func(head string) func() io.Reader {
		return func() io.Reader {
			return io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, maxRequestBody+1-int64(len(head))))
		}
	}
	bodies["oversized/unterminated"] = over(`{"offers": [`)
	bodies["oversized/complete_first"] = over(`{"timeout_ms":7}`)
	gone := func(head string) func() io.Reader {
		return func() io.Reader {
			return io.MultiReader(strings.NewReader(head), failedRead{io.ErrUnexpectedEOF})
		}
	}
	bodies["client_gone/unterminated"] = gone(`{"offers": [`)
	bodies["client_gone/complete_first"] = gone(`{"timeout_ms":7} `)

	// The reference's status for the bodies whose scenario is the point:
	// a value complete before the failed read still decodes.
	scenario := map[string]int{
		"oversized/unterminated":     http.StatusRequestEntityTooLarge,
		"oversized/complete_first":   http.StatusOK,
		"client_gone/unterminated":   http.StatusBadRequest,
		"client_gone/complete_first": http.StatusOK,
		"corpus/canonical":           http.StatusOK,
	}

	for name, open := range bodies {
		t.Run(name, func(t *testing.T) {
			wantRec := httptest.NewRecorder()
			var want SynthesizeRequest
			wantOK := refDecodeJSON(wantRec, httptest.NewRequest("POST", "/v1/synthesize", open()), &want)
			if code, ok := scenario[name]; ok && wantRec.Code != code {
				t.Fatalf("the reference answers %d, the scenario wants %d", wantRec.Code, code)
			}

			gotRec := httptest.NewRecorder()
			var got SynthesizeRequest
			gotOK := decodeSynthesize(gotRec, httptest.NewRequest("POST", "/v1/synthesize", open()), &got)

			if gotOK != wantOK || gotRec.Code != wantRec.Code {
				t.Fatalf("decoded %v with status %d, the reference %v with %d", gotOK, gotRec.Code, wantOK, wantRec.Code)
			}
			if g, w := gotRec.Body.String(), wantRec.Body.String(); g != w {
				t.Fatalf("response body %q, the reference %q", g, w)
			}
			if !reflect.DeepEqual(gotRec.Header(), wantRec.Header()) {
				t.Fatalf("response header %v, the reference %v", gotRec.Header(), wantRec.Header())
			}
			if wantOK && !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %#v, the reference %#v", got, want)
			}
		})
	}
}
