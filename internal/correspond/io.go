package correspond

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"prodsynth/internal/offer"
)

// The TSV serialization lets a production deployment learn correspondences
// offline on one machine and ship the artifact to the runtime fleet —
// retraining per synthesis run would waste the most expensive phase.
//
//	merchant \t category \t merchant_attr \t catalog_attr \t score

// ErrBadCorrespondenceFile is wrapped by all parsing errors.
var ErrBadCorrespondenceFile = errors.New("correspond: malformed correspondence file")

var ioHeader = "merchant\tcategory\tmerchant_attr\tcatalog_attr\tscore"

// WriteSet serializes a correspondence set in deterministic order.
func WriteSet(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ioHeader + "\n"); err != nil {
		return err
	}
	for _, sc := range s.All() {
		row := fmt.Sprintf("%s\t%s\t%s\t%s\t%.6f\n",
			sanitize(sc.Key.Merchant), sanitize(sc.Key.CategoryID),
			sanitize(sc.MerchantAttr), sanitize(sc.CatalogAttr), sc.Score)
		if _, err := bw.WriteString(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	return strings.ReplaceAll(s, "\n", " ")
}

// ReadSet parses a correspondence file written by WriteSet.
func ReadSet(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: empty input", ErrBadCorrespondenceFile)
	}
	if sc.Text() != ioHeader {
		return nil, fmt.Errorf("%w: unexpected header %q", ErrBadCorrespondenceFile, sc.Text())
	}
	set := NewSet()
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Text()
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("%w: line %d has %d fields, want 5", ErrBadCorrespondenceFile, line, len(fields))
		}
		score, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d score: %v", ErrBadCorrespondenceFile, line, err)
		}
		set.Add(Scored{
			Candidate: Candidate{
				Key:          offer.SchemaKey{Merchant: fields[0], CategoryID: fields[1]},
				MerchantAttr: fields[2],
				CatalogAttr:  fields[3],
			},
			Score: score,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}
