package snapfmt

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

var errBad = errors.New("test: bad block")

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello snapshot payload")
	var buf bytes.Buffer
	if err := Encode(&buf, testMagic, 3, 1<<20, payload); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()), testMagic, 3, 1<<20, errBad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: %q != %q", got, payload)
	}
}

// TestEncodeRejectsOversizedPayload pins the save-time half of the size
// limit: a payload the decoder would refuse must not be writable in the
// first place, or the artifact is silently unrecoverable.
func TestEncodeRejectsOversizedPayload(t *testing.T) {
	payload := make([]byte, 100)
	var buf bytes.Buffer
	err := Encode(&buf, testMagic, 1, 99, payload)
	if err == nil {
		t.Fatal("oversized payload encoded without error")
	}
	if !strings.Contains(err.Error(), "unloadable") {
		t.Errorf("err = %v, want the unloadable-artifact explanation", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failed Encode wrote %d bytes", buf.Len())
	}
	// At the limit exactly, the block must encode and decode.
	if err := Encode(&buf, testMagic, 1, 100, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()), testMagic, 1, 100, errBad); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeLeavesReaderAtBlockEnd pins the self-delimiting property the
// bundle depends on: two blocks decode back to back from one reader.
func TestDecodeLeavesReaderAtBlockEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testMagic, 1, 1<<10, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&buf, testMagic, 1, 1<<10, []byte("second")); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	a, err := Decode(r, testMagic, 1, 1<<10, errBad)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(r, testMagic, 1, 1<<10, errBad)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != "first" || string(b) != "second" {
		t.Fatalf("blocks = %q, %q", a, b)
	}
	if err := ExpectEOF(r, errBad); err != nil {
		t.Fatal(err)
	}
}

// TestWriterFixedWidthNoAllocs pins that the numeric emitters append into
// the buffer's spare capacity instead of allocating a scratch slice each.
func TestWriterFixedWidthNoAllocs(t *testing.T) {
	const runs = 100
	var p Writer
	p.buf.Grow((runs + 1) * (4 + 8 + 8 + 10))
	allocs := testing.AllocsPerRun(runs, func() {
		p.U32(0xdeadbeef)
		p.U64(1 << 60)
		p.F64(0.5)
		p.Uvarint(1 << 63)
	})
	if allocs != 0 {
		t.Fatalf("U32+U64+F64+Uvarint allocate %v times per call, want 0", allocs)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1<<32 - 1, 1 << 35, 1<<64 - 1}
	var p Writer
	for _, v := range values {
		p.Uvarint(v)
	}
	d := NewReader(p.Bytes(), errBad)
	for _, want := range values {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderVarintStrict pins the uvarint and index error paths: each
// latches an error wrapping the base error, and none panics.
func TestReaderVarintStrict(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	cases := []struct {
		name    string
		payload []byte
		read    func(d *Reader)
		want    string
	}{
		{"empty", nil, func(d *Reader) { d.Uvarint() }, "truncated uvarint"},
		{"truncated", []byte{0x80, 0x80}, func(d *Reader) { d.Uvarint() }, "truncated uvarint"},
		{"11-byte overlong", overlong, func(d *Reader) { d.Uvarint() }, "overflows 64 bits"},
		{"10th byte above 1", overflow, func(d *Reader) { d.Uvarint() }, "overflows 64 bits"},
		{"non-minimal", []byte{0x85, 0x00}, func(d *Reader) { d.Uvarint() }, "non-minimal uvarint"},
		{"index out of range", []byte{0x03}, func(d *Reader) { d.Index("name", 3) }, "name index 3 out of range 3"},
		{"index into empty table", []byte{0x00}, func(d *Reader) { d.Index("score", 0) }, "score index 0 out of range 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewReader(tc.payload, errBad)
			tc.read(d)
			err := d.Err()
			if !errors.Is(err, errBad) {
				t.Fatalf("err = %v, want one wrapping the base error", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
	// The largest in-range index and the largest uint64 both decode.
	d := NewReader([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, errBad)
	if i := d.Index("name", 3); i != 2 {
		t.Errorf("Index = %d, want 2", i)
	}
	if v := d.Uvarint(); v != 1<<64-1 {
		t.Errorf("Uvarint = %d, want MaxUint64", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}
