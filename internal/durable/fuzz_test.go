package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prodsynth/internal/catalog"
)

// fuzzSeedSegment builds a well-formed segment over the standard test
// schema — the coverage anchor the mutator works outward from.
func fuzzSeedSegment() []byte {
	var buf []byte
	for _, c := range testCategories() {
		buf = append(buf, frameRecord(encodeCategory(c))...)
	}
	for i := 0; i < 4; i++ {
		p := testProduct(i)
		buf = append(buf, frameRecord(encodeProduct(uint64(i/2+1), true, p))...)
	}
	return buf
}

// FuzzReplayLog feeds arbitrary bytes through the full segment replay
// path — framing, CRC, payload decode, store.Replay, torn-tail
// truncation — into a fresh store. Whatever the input, replay must not
// panic, and an accepted (nil-error) replay must leave the store
// internally consistent enough to re-encode.
func FuzzReplayLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedSegment())
	// A torn tail: a valid prefix plus half a record.
	seed := fuzzSeedSegment()
	f.Add(seed[:len(seed)-len(seed)/3])
	// A corrupt interior: valid framing, flipped payload byte.
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store := catalog.NewStore()
		res, err := replaySegments(osFS{}, store, dir, []uint64{1})
		if err != nil {
			return
		}
		if res.records < 0 || res.truncated < 0 || res.truncated > int64(len(data)) {
			t.Fatalf("implausible replay result %+v for %d input bytes", res, len(data))
		}
		// Accepted replays must leave an encodable store.
		if err := catalog.EncodeStore(io.Discard, store); err != nil {
			t.Fatalf("store unencodable after accepted replay: %v", err)
		}
	})
}

// FuzzDecodeSpilled feeds arbitrary payloads to the spill-record decoder.
// Whatever the input, decoding must not panic, and a payload it accepts
// must survive a re-encode: decodeSpilled(encodeSpilled(x)) == x. The
// checked-in corpus holds a valid record, a truncated one and one whose
// key count runs past the payload.
func FuzzDecodeSpilled(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeSpilled(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpill) {
				t.Fatalf("decode error does not wrap ErrBadSpill: %v", err)
			}
			return
		}
		again, err := decodeSpilled(encodeSpilled(sp))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("round trip changed the record:\n got %#v\nwant %#v", again, sp)
		}
	})
}
