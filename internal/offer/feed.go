package offer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"prodsynth/internal/catalog"
)

// The feed format mirrors Figure 3 of the paper: a header row then one offer
// per line, tab-separated. The optional Spec column encodes any structured
// attribute-value pairs already present in the feed as "A=v|B=w" (most real
// feeds leave it empty — "most feeds contain little structured data", §2).
//
//	id \t merchant \t category \t title \t price_cents \t url \t image \t spec
var feedHeader = []string{"id", "merchant", "category", "title", "price_cents", "url", "image", "spec"}

// ErrBadFeed is wrapped by all feed parsing errors.
var ErrBadFeed = errors.New("offer: malformed feed")

// WriteFeed serializes offers in the TSV feed format.
func WriteFeed(w io.Writer, offers []Offer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(feedHeader, "\t") + "\n"); err != nil {
		return err
	}
	for _, o := range offers {
		row := []string{
			sanitizeField(o.ID),
			sanitizeField(o.Merchant),
			sanitizeField(o.CategoryID),
			sanitizeField(o.Title),
			strconv.FormatInt(o.PriceCents, 10),
			sanitizeField(o.URL),
			sanitizeField(o.ImageURL),
			encodeSpec(o.Spec),
		}
		if _, err := bw.WriteString(strings.Join(row, "\t") + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFeed parses a TSV feed produced by WriteFeed (or hand-authored in the
// same format). It validates the header and field count and returns an error
// naming the offending line.
func ReadFeed(r io.Reader) ([]Offer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: empty input", ErrBadFeed)
	}
	if got := sc.Text(); got != strings.Join(feedHeader, "\t") {
		return nil, fmt.Errorf("%w: unexpected header %q", ErrBadFeed, got)
	}
	var offers []Offer
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Text()
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, "\t")
		if len(fields) != len(feedHeader) {
			return nil, fmt.Errorf("%w: line %d has %d fields, want %d", ErrBadFeed, line, len(fields), len(feedHeader))
		}
		price, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d price: %v", ErrBadFeed, line, err)
		}
		spec, err := decodeSpec(fields[7])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d spec: %v", ErrBadFeed, line, err)
		}
		offers = append(offers, Offer{
			ID:         fields[0],
			Merchant:   fields[1],
			CategoryID: fields[2],
			Title:      fields[3],
			PriceCents: price,
			URL:        fields[5],
			ImageURL:   fields[6],
			Spec:       spec,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return offers, nil
}

// sanitizeField strips the TSV structural characters from free text.
func sanitizeField(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	s = strings.ReplaceAll(s, "\n", " ")
	return s
}

// specSanitizer blanks the characters the spec column reserves: the pair
// and name separators, the TSV structure, and '\r', which the reader
// would strip as half of a CRLF when it ends a row.
var specSanitizer = strings.NewReplacer("=", " ", "|", " ", "\t", " ", "\n", " ", "\r", " ")

func encodeSpec(s catalog.Spec) string {
	if len(s) == 0 {
		return ""
	}
	parts := make([]string, len(s))
	for i, av := range s {
		parts[i] = specSanitizer.Replace(av.Name) + "=" + specSanitizer.Replace(av.Value)
	}
	return strings.Join(parts, "|")
}

func decodeSpec(s string) (catalog.Spec, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	spec := make(catalog.Spec, 0, len(parts))
	for _, p := range parts {
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			return nil, fmt.Errorf("pair %q missing '='", p)
		}
		spec = append(spec, catalog.AttributeValue{Name: p[:eq], Value: p[eq+1:]})
	}
	return spec, nil
}
