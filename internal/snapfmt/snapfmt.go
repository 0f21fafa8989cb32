// Package snapfmt is the shared framing and payload codec behind every
// on-disk snapshot artifact: the learned model (internal/core), the
// catalog store (internal/catalog), and the combined bundle (the root
// package). Each artifact is one framed block — a magic + version +
// length + CRC32 header over a deterministic little-endian payload —
// written through a Writer and parsed through a strict bounds-checked
// Reader that latches its first failure.
//
// Layout of one block (all integers little-endian):
//
//	magic   (4 bytes, per artifact kind)
//	version uint32
//	length  uint64 (payload byte count)
//	crc32   uint32 (IEEE, over the payload)
//	payload
//
// Blocks are self-delimiting, so artifacts can be concatenated: the
// bundle embeds a catalog block and a model block back to back. Decode
// reads exactly one block and leaves the reader positioned after it;
// ExpectEOF asserts a clean end of input where nothing may follow.
package snapfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const headerSize = 20

// HeaderSize is the framed-block header length: magic + version + length
// + crc32. Composite artifacts use it to compute the absolute offset of
// an embedded block inside an outer payload.
const HeaderSize = headerSize

// OffsetReader wraps a reader and counts the bytes consumed, so Decode
// can report *where* in a multi-gigabyte artifact a bad frame sits. The
// base offset supports readers positioned inside a larger artifact (an
// embedded block): Offset reports base + bytes consumed.
type OffsetReader struct {
	r    io.Reader
	base int64
	n    int64
}

// NewOffsetReader wraps r counting from byte 0.
func NewOffsetReader(r io.Reader) *OffsetReader { return NewOffsetReaderAt(r, 0) }

// NewOffsetReaderAt wraps r counting from the given base offset.
func NewOffsetReaderAt(r io.Reader, base int64) *OffsetReader {
	return &OffsetReader{r: r, base: base}
}

func (o *OffsetReader) Read(p []byte) (int, error) {
	n, err := o.r.Read(p)
	o.n += int64(n)
	return n, err
}

// Offset returns the absolute position of the next unread byte.
func (o *OffsetReader) Offset() int64 { return o.base + o.n }

// positioned is satisfied by OffsetReader (and anything else that knows
// its absolute position); Decode and ExpectEOF use it to locate errors.
type positioned interface{ Offset() int64 }

// TrackOffset wraps r so Decode errors carry byte offsets; a reader that
// already reports its position is returned unchanged.
func TrackOffset(r io.Reader) io.Reader {
	if _, ok := r.(positioned); ok {
		return r
	}
	return NewOffsetReader(r)
}

// Encode frames the payload under the given magic and format version and
// writes the block to w. maxPayload must be the same limit the artifact's
// decoder enforces: a payload past it is rejected here, at save time,
// rather than producing an artifact every later Decode refuses to load.
func Encode(w io.Writer, magic [4]byte, version uint32, maxPayload uint64, payload []byte) error {
	if uint64(len(payload)) > maxPayload {
		return fmt.Errorf("snapfmt: payload %d bytes exceeds the %q format limit %d — artifact would be unloadable", len(payload), magic[:], maxPayload)
	}
	header := make([]byte, 0, headerSize)
	header = append(header, magic[:]...)
	header = binary.LittleEndian.AppendUint32(header, version)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(payload)))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Decode reads one framed block from r, strictly: wrong magic, a version
// other than version, a length past maxPayload, and any length or
// checksum mismatch all error wrapping baseErr, never a panic or a
// partial payload. Genuine reader I/O failures pass through unwrapped.
// Decode consumes exactly the block and nothing after it.
//
// When r reports its position (an OffsetReader, or anything with an
// Offset() int64 method — see TrackOffset), every format error names the
// byte offset of the bad frame, so corruption in a multi-gigabyte
// artifact is a seek target rather than a mystery.
func Decode(r io.Reader, magic [4]byte, version uint32, maxPayload uint64, baseErr error) ([]byte, error) {
	var start int64
	pos, tracked := r.(positioned)
	if tracked {
		start = pos.Offset()
	}
	// at locates the frame in errors when the reader tracks offsets.
	at := ""
	if tracked {
		at = fmt.Sprintf(" (frame at byte %d)", start)
	}
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header: %v%s", baseErr, err, at)
		}
		return nil, err // genuine reader I/O failure, not a format error
	}
	if !bytes.Equal(header[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q%s", baseErr, header[:4], at)
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != version {
		return nil, fmt.Errorf("%w: unsupported format version %d (want %d)%s", baseErr, v, version, at)
	}
	length := binary.LittleEndian.Uint64(header[8:16])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit%s", baseErr, length, at)
	}
	sum := binary.LittleEndian.Uint32(header[16:20])

	// Read through a limited ReadAll rather than a trusted-length alloc,
	// so a forged length cannot force a giant allocation. ReadAll never
	// returns io.EOF, so any error here is a genuine reader failure —
	// short input surfaces as the length mismatch below instead.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != length {
		if tracked {
			return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes (frame at byte %d, input ends at byte %d)",
				baseErr, len(payload), length, start, pos.Offset())
		}
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", baseErr, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch: %08x != %08x%s", baseErr, got, sum, at)
	}
	return payload, nil
}

// ExpectEOF fails with baseErr if r still has bytes — the trailing-data
// check for artifacts where the block must be the whole input.
func ExpectEOF(r io.Reader, baseErr error) error {
	// io.ReadFull rather than a bare Read: a reader may legally return
	// (0, nil), which would let trailing bytes slip past a single Read.
	switch _, err := io.ReadFull(r, make([]byte, 1)); err {
	case io.EOF:
		return nil // clean end of input
	case nil:
		if pos, ok := r.(positioned); ok {
			return fmt.Errorf("%w: trailing data after payload (at byte %d)", baseErr, pos.Offset()-1)
		}
		return fmt.Errorf("%w: trailing data after payload", baseErr)
	default:
		return err // genuine reader I/O failure, not a format error
	}
}

// Writer accumulates a payload. bytes.Buffer writes cannot fail, so the
// emit methods return nothing; the same logical state always encodes to
// the same bytes. The numeric emitters append into the buffer's spare
// capacity, so they allocate only when the buffer grows.
type Writer struct {
	buf bytes.Buffer
}

// Bytes returns the accumulated payload.
func (p *Writer) Bytes() []byte { return p.buf.Bytes() }

func (p *Writer) U32(v uint32) {
	p.buf.Write(binary.LittleEndian.AppendUint32(p.buf.AvailableBuffer(), v))
}

func (p *Writer) U64(v uint64) {
	p.buf.Write(binary.LittleEndian.AppendUint64(p.buf.AvailableBuffer(), v))
}

// Uvarint writes v in the minimal unsigned LEB128 form (1 to 10 bytes).
func (p *Writer) Uvarint(v uint64) {
	p.buf.Write(binary.AppendUvarint(p.buf.AvailableBuffer(), v))
}

func (p *Writer) F64(v float64) { p.U64(math.Float64bits(v)) }

func (p *Writer) Bool(v bool) {
	if v {
		p.buf.WriteByte(1)
	} else {
		p.buf.WriteByte(0)
	}
}

func (p *Writer) Str(s string) {
	p.U32(uint32(len(s)))
	p.buf.WriteString(s)
}

// Reader is a strict bounds-checked cursor over a payload. The first
// failure latches err and turns every later read into a no-op, so
// section decoders can run unconditionally and the error is checked once
// (Err, or Finish which also rejects unparsed leftover bytes). Every
// failure wraps the base error given to NewReader.
type Reader struct {
	buf  []byte
	pos  int
	err  error
	base error
}

// NewReader returns a Reader over payload whose failures wrap baseErr.
func NewReader(payload []byte, baseErr error) *Reader {
	return &Reader{buf: payload, base: baseErr}
}

// Err returns the latched failure, if any.
func (d *Reader) Err() error { return d.err }

// Fail latches a failure wrapping the base error; the first one wins.
func (d *Reader) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.base}, args...)...)
	}
}

// Finish returns the latched failure, or an error if payload bytes
// remain unparsed.
func (d *Reader) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%w: %d unparsed payload bytes", d.base, len(d.buf)-d.pos)
	}
	return nil
}

func (d *Reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.pos < n {
		d.Fail("truncated at byte %d (need %d more)", d.pos, n)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *Reader) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Reader) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a u64 and rejects values that do not fit an int.
func (d *Reader) Int(what string) int {
	v := d.U64()
	if v > math.MaxInt64 {
		d.Fail("%s out of range: %d", what, v)
		return 0
	}
	return int(int64(v))
}

func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads a value written by Writer.Uvarint. A truncated varint, one
// that overflows uint64, and one longer than its minimal form all fail,
// so every accepted value has exactly one encoding.
func (d *Reader) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	switch {
	case n == 0:
		d.Fail("truncated uvarint at byte %d", d.pos)
		return 0
	case n < 0:
		d.Fail("uvarint overflows 64 bits at byte %d", d.pos)
		return 0
	case n > 1 && d.buf[d.pos+n-1] == 0:
		d.Fail("non-minimal uvarint at byte %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Index reads a uvarint that must index a table of n entries. After a
// failure it returns 0.
func (d *Reader) Index(what string, n int) int {
	i := d.Uvarint()
	if i < uint64(n) {
		return int(i)
	}
	d.Fail("%s index %d out of range %d", what, i, n)
	return 0
}

func (d *Reader) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("invalid bool byte %d at %d", b[0], d.pos-1)
		return false
	}
}

func (d *Reader) Str() string {
	n := d.U32()
	return string(d.take(int(n)))
}

// Count reads an element count and sanity-checks it against the bytes
// remaining (minSize is the smallest possible encoding of one element),
// so a forged count cannot drive a huge preallocation.
func (d *Reader) Count(what string, minSize int) int {
	n := int(d.U32())
	if d.err == nil && n*minSize > len(d.buf)-d.pos {
		d.Fail("%s count %d exceeds remaining payload", what, n)
		return 0
	}
	return n
}
