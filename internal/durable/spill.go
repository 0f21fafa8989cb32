package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"prodsynth/internal/catalog"
	"prodsynth/internal/cluster"
	"prodsynth/internal/offer"
	"prodsynth/internal/snapfmt"
)

// ErrBadSpill is wrapped by every spill-record decode failure.
var ErrBadSpill = errors.New("durable: invalid spill record")

// SpillDir hands every stream a file-backed spill store under Dir: open
// clusters evicted from the stream's RAM bounds park on disk (see
// cluster.SpillStore) and only a small key -> offset index stays in
// memory. Files are per-stream scratch — created on demand, deleted on
// Close, never part of recovery.
type SpillDir struct {
	// Dir is the directory spill files are created in (a "spill"
	// subdirectory of a Manager's data dir, typically). Created if
	// missing.
	Dir string
}

// NewSpill implements cluster.SpillFactory.
func (d SpillDir) NewSpill() (cluster.SpillStore, error) {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(d.Dir, "spill-*.psps")
	if err != nil {
		return nil, err
	}
	return &fileSpill{f: f, index: make(map[string]int64), live: make(map[int64][]string)}, nil
}

// fileSpill is an append-only spill file plus its in-RAM indexes. Space
// of revived clusters is not reclaimed — the file is scratch, bounded by
// the stream's lifetime and deleted at Close; what matters is that the
// cluster MEMBERS (the bulk) live on disk while only keys and offsets
// stay resident. Not safe for concurrent use, matching the SpillStore
// contract (one stream owns one store).
type fileSpill struct {
	f     *os.File
	end   int64
	index map[string]int64   // key -> record offset
	live  map[int64][]string // record offset -> its keys (the live set)
}

// Spill implements cluster.SpillStore.
func (s *fileSpill) Spill(sp cluster.Spilled) error {
	buf := appendFrame(nil, encodeSpilled(sp))
	if _, err := s.f.WriteAt(buf, s.end); err != nil {
		return err
	}
	ref := s.end
	s.end += int64(len(buf))
	keys := append([]string(nil), sp.Keys...)
	s.live[ref] = keys
	for _, k := range keys {
		s.index[k] = ref
	}
	return nil
}

// Lookup implements cluster.SpillStore.
func (s *fileSpill) Lookup(key string) (int64, bool) {
	ref, ok := s.index[key]
	return ref, ok
}

// Revive implements cluster.SpillStore.
func (s *fileSpill) Revive(ref int64) (cluster.Spilled, error) {
	keys, ok := s.live[ref]
	if !ok {
		return cluster.Spilled{}, fmt.Errorf("durable: no spilled cluster at offset %d", ref)
	}
	sp, err := s.readAt(ref)
	if err != nil {
		return cluster.Spilled{}, err
	}
	delete(s.live, ref)
	for _, k := range keys {
		if s.index[k] == ref {
			delete(s.index, k)
		}
	}
	return sp, nil
}

// All implements cluster.SpillStore: every live cluster, read back from
// disk, in stable (offset) order.
func (s *fileSpill) All() ([]cluster.Spilled, error) {
	refs := make([]int64, 0, len(s.live))
	for ref := range s.live {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	out := make([]cluster.Spilled, len(refs))
	for i, ref := range refs {
		sp, err := s.readAt(ref)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// Len implements cluster.SpillStore.
func (s *fileSpill) Len() int { return len(s.live) }

// Close implements cluster.SpillStore: the file is scratch, so it is
// removed, not kept.
func (s *fileSpill) Close() error {
	name := s.f.Name()
	err := s.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	return err
}

// readAt decodes the framed spill record at the given offset.
func (s *fileSpill) readAt(ref int64) (cluster.Spilled, error) {
	var hdr [recordHeaderSize]byte
	if _, err := s.f.ReadAt(hdr[:], ref); err != nil {
		return cluster.Spilled{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordLen {
		return cluster.Spilled{}, fmt.Errorf("%w: record length %d exceeds maximum %d", ErrBadSpill, length, maxRecordLen)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, ref+recordHeaderSize, int64(length)), payload); err != nil {
		return cluster.Spilled{}, err
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return cluster.Spilled{}, fmt.Errorf("%w: checksum mismatch at offset %d", ErrBadSpill, ref)
	}
	return decodeSpilled(payload)
}

// encodeSpilled serializes one spilled cluster. CatVersions is written
// sorted by category so the bytes are deterministic.
func encodeSpilled(sp cluster.Spilled) []byte {
	var p snapfmt.Writer
	p.U64(uint64(sp.Ord))
	p.U64(uint64(sp.LastWave))
	p.U32(uint32(len(sp.Keys)))
	for _, k := range sp.Keys {
		p.Str(k)
	}
	cats := make([]string, 0, len(sp.CatVersions))
	for c := range sp.CatVersions {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	p.U32(uint32(len(cats)))
	for _, c := range cats {
		p.Str(c)
		p.U64(sp.CatVersions[c])
	}
	p.U32(uint32(len(sp.Members)))
	for _, m := range sp.Members {
		p.U64(uint64(m.Seq))
		o := m.Offer
		p.Str(o.ID)
		p.Str(o.Merchant)
		p.Str(o.CategoryID)
		p.Str(o.Title)
		p.U64(uint64(o.PriceCents))
		p.Str(o.URL)
		p.Str(o.ImageURL)
		p.U32(uint32(len(o.Spec)))
		for _, av := range o.Spec {
			p.Str(av.Name)
			p.Str(av.Value)
		}
	}
	return p.Bytes()
}

func decodeSpilled(payload []byte) (cluster.Spilled, error) {
	d := snapfmt.NewReader(payload, ErrBadSpill)
	var sp cluster.Spilled
	sp.Ord = d.Int("cluster ordinal")
	sp.LastWave = d.Int("last wave")
	nk := d.Count("keys", 4)
	for i := 0; i < nk && d.Err() == nil; i++ {
		sp.Keys = append(sp.Keys, d.Str())
	}
	nc := d.Count("category versions", 12)
	if nc > 0 && d.Err() == nil {
		sp.CatVersions = make(map[string]uint64, nc)
		for i := 0; i < nc && d.Err() == nil; i++ {
			c := d.Str()
			sp.CatVersions[c] = d.U64()
		}
	}
	nm := d.Count("members", 8)
	for i := 0; i < nm && d.Err() == nil; i++ {
		var m cluster.SpillMember
		m.Seq = d.Int("member seq")
		var o offer.Offer
		o.ID = d.Str()
		o.Merchant = d.Str()
		o.CategoryID = d.Str()
		o.Title = d.Str()
		o.PriceCents = int64(d.U64())
		o.URL = d.Str()
		o.ImageURL = d.Str()
		ns := d.Count("offer spec pairs", 8)
		for j := 0; j < ns && d.Err() == nil; j++ {
			var av catalog.AttributeValue
			av.Name = d.Str()
			av.Value = d.Str()
			o.Spec = append(o.Spec, av)
		}
		m.Offer = o
		sp.Members = append(sp.Members, m)
	}
	if err := d.Finish(); err != nil {
		return cluster.Spilled{}, err
	}
	return sp, nil
}
