package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"prodsynth/internal/catalog"
)

// replayResult is what replaying the log tail over a snapshot produced.
type replayResult struct {
	records   int
	truncated int64
	segments  int
}

// replaySegments applies the listed segments, in sequence order, to the
// store. A record that cannot be parsed is either a torn tail — the
// write a crash cut short — or corruption, and the two are deliberately
// distinguished: only the LAST segment may end torn (a crash tears at
// most the newest write), and only at its physical end. A torn tail is
// truncated off the file (so the next recovery does not re-trip on it)
// and replay stops there; everything else is an error, because silently
// skipping mid-log records would replay a catalog different from the one
// that was acknowledged.
func replaySegments(fs fileSys, store *catalog.Store, dir string, seqs []uint64) (replayResult, error) {
	var res replayResult
	for i, seq := range seqs {
		last := i == len(seqs)-1
		n, trunc, err := replaySegment(fs, store, filepath.Join(dir, segName(seq)), last)
		if err != nil {
			return res, fmt.Errorf("durable: segment %s: %w", segName(seq), err)
		}
		res.records += n
		res.truncated += trunc
		res.segments++
	}
	return res, nil
}

func replaySegment(fs fileSys, store *catalog.Store, path string, last bool) (records int, truncated int64, err error) {
	data, err := fs.readFile(path)
	if err != nil {
		return 0, 0, err
	}
	n, off, framing, perr := applyRecords(store, data)
	if perr == nil {
		return n, 0, nil
	}
	if !last {
		return n, 0, fmt.Errorf("at byte %d (not the last segment, so not a torn tail): %w", off, perr)
	}
	// A record whose checksum verified but whose fields failed to decode
	// or replay cannot be a torn write — a crash tears framing, it does
	// not forge a valid CRC over bad fields.
	if !framing || !tornTail(data, off) {
		return n, 0, fmt.Errorf("at byte %d (not a torn tail): %w", off, perr)
	}
	// Torn tail: cut it off, durably, before a later segment exists, or a
	// crash after that would leave the tear in a segment that is no
	// longer the last.
	if err := fs.truncate(path, off); err != nil {
		return n, 0, err
	}
	return n, int64(len(data)) - off, nil
}

// applyRecords replays framed records from data until the end or the
// first failure, returning how many applied, the byte offset of the
// failed record, and whether the failure was in the framing layer
// (header/length/checksum — the kind a torn write produces) as opposed
// to a decode or replay failure of a checksum-verified payload.
func applyRecords(store *catalog.Store, data []byte) (records int, off int64, framing bool, err error) {
	pos := 0
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < recordHeaderSize {
			return records, int64(pos), true, fmt.Errorf("%w: truncated record header: %d of %d bytes", ErrBadRecord, len(rest), recordHeaderSize)
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxRecordLen {
			return records, int64(pos), true, fmt.Errorf("%w: record length %d exceeds maximum %d", ErrBadRecord, length, maxRecordLen)
		}
		if uint64(len(rest)-recordHeaderSize) < uint64(length) {
			return records, int64(pos), true, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrBadRecord, len(rest)-recordHeaderSize, length)
		}
		payload := rest[recordHeaderSize : recordHeaderSize+int(length)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return records, int64(pos), true, fmt.Errorf("%w: checksum mismatch: got %08x, want %08x", ErrBadRecord, got, sum)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return records, int64(pos), false, derr
		}
		if rerr := store.Replay(rec); rerr != nil {
			return records, int64(pos), false, fmt.Errorf("replay: %w", rerr)
		}
		records++
		pos += recordHeaderSize + int(length)
	}
	return records, int64(pos), true, nil
}

// tornTail reports whether a parse failure at off looks like a torn
// final write rather than mid-log corruption: the failed record must
// reach (or claim to reach) the physical end of the file. A record whose
// bytes are all present mid-file but fail its checksum is corruption —
// valid records follow it, so a crash cannot explain it.
func tornTail(data []byte, off int64) bool {
	rest := data[off:]
	if len(rest) < recordHeaderSize {
		return true // header itself cut short
	}
	length := binary.LittleEndian.Uint32(rest[0:4])
	claimed := uint64(recordHeaderSize) + uint64(length)
	if uint64(len(rest)) < claimed {
		return true // payload cut short (or garbage length overrunning EOF)
	}
	// All claimed bytes are present: torn only if nothing follows — a
	// sector-granular tear can zero-fill the final record's tail.
	return uint64(len(rest)) == claimed
}
