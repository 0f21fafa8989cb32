package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"prodsynth/internal/catalog"
	"prodsynth/internal/snapfmt"
)

// ErrBadRecord is wrapped by every log-record decode failure: bad
// framing, checksum mismatch, unknown record type, or a payload whose
// fields cannot be parsed.
var ErrBadRecord = errors.New("durable: invalid log record")

// Record type tags. The log is append-only; new record kinds get new
// tags, existing tags never change meaning.
const (
	recCategory = 1
	recProduct  = 2
)

// recordHeaderSize is the per-record framing: u32 payload length + u32
// CRC-32 (IEEE) over the payload, both little-endian.
const recordHeaderSize = 8

// maxRecordLen bounds the payload length replay accepts, so a corrupt
// length field cannot demand an absurd allocation. Far above any real
// record (one product or one category schema).
const maxRecordLen = 1 << 28

// appendFrame appends payload to dst in the length+CRC record framing.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// encodeCategory builds the payload of a category-registration record.
func encodeCategory(c catalog.Category) []byte {
	var p snapfmt.Writer
	p.U32(recCategory)
	p.Str(c.ID)
	p.Str(c.Name)
	p.Str(c.TopLevel)
	p.U32(uint32(len(c.Schema.Attributes)))
	for _, a := range c.Schema.Attributes {
		p.Str(a.Name)
		p.U32(uint32(a.Kind))
		p.Str(a.Unit)
	}
	return p.Bytes()
}

// encodeProduct builds the payload of a product-append record. version
// is the category version after the append and ownsKey whether the
// product claimed its UPC/MPN key — both recorded so replay reproduces
// the original store exactly (see catalog.ReplayRecord).
func encodeProduct(version uint64, ownsKey bool, pr catalog.Product) []byte {
	var p snapfmt.Writer
	p.U32(recProduct)
	p.Str(pr.CategoryID)
	p.U64(version)
	p.Bool(ownsKey)
	p.Str(pr.ID)
	p.U32(uint32(len(pr.Spec)))
	for _, av := range pr.Spec {
		p.Str(av.Name)
		p.Str(av.Value)
	}
	return p.Bytes()
}

// decodeRecord parses one record payload (already CRC-verified) into a
// replayable mutation. The log is an external input at replay time, so
// everything is bounds-checked; structural validity (schema conformance,
// version contiguity) is re-checked by catalog.Replay itself.
func decodeRecord(payload []byte) (catalog.ReplayRecord, error) {
	d := snapfmt.NewReader(payload, ErrBadRecord)
	tag := d.U32()
	if err := d.Err(); err != nil {
		return catalog.ReplayRecord{}, err
	}
	switch tag {
	case recCategory:
		var c catalog.Category
		c.ID = d.Str()
		c.Name = d.Str()
		c.TopLevel = d.Str()
		// Minimum attribute encoding: name len + kind + unit len.
		n := d.Count("schema attributes", 12)
		for i := 0; i < n && d.Err() == nil; i++ {
			var a catalog.Attribute
			a.Name = d.Str()
			kind := d.U32()
			if d.Err() == nil && kind > uint32(catalog.KindIdentifier) {
				d.Fail("attribute kind out of range: %d", kind)
			}
			a.Kind = catalog.AttributeKind(kind)
			a.Unit = d.Str()
			c.Schema.Attributes = append(c.Schema.Attributes, a)
		}
		if err := d.Finish(); err != nil {
			return catalog.ReplayRecord{}, err
		}
		return catalog.ReplayRecord{Category: &c}, nil
	case recProduct:
		var pr catalog.Product
		var rec catalog.ReplayRecord
		pr.CategoryID = d.Str()
		rec.Version = d.U64()
		rec.OwnsKey = d.Bool()
		pr.ID = d.Str()
		// Minimum spec-pair encoding: name len + value len.
		n := d.Count("spec pairs", 8)
		for i := 0; i < n && d.Err() == nil; i++ {
			var av catalog.AttributeValue
			av.Name = d.Str()
			av.Value = d.Str()
			pr.Spec = append(pr.Spec, av)
		}
		if err := d.Finish(); err != nil {
			return catalog.ReplayRecord{}, err
		}
		rec.Product = &pr
		return rec, nil
	default:
		return catalog.ReplayRecord{}, fmt.Errorf("%w: unknown record type %d", ErrBadRecord, tag)
	}
}

// snapshotRecords flattens a catalog snapshot into the replay records
// that would have produced it: every category first, then each
// category's products in insertion order with version i+1 and ownership
// read off the snapshot's key table. Used to seed an empty durable store
// from a bundle (see Manager.ImportSnapshot).
func snapshotRecords(snap catalog.Snapshot) []catalog.ReplayRecord {
	owner := make(map[string]string, len(snap.Keys))
	for _, k := range snap.Keys {
		owner[k.Key] = k.ProductID
	}
	var recs []catalog.ReplayRecord
	for i := range snap.Categories {
		c := snap.Categories[i].Category
		recs = append(recs, catalog.ReplayRecord{Category: &c})
	}
	for ci := range snap.Categories {
		cs := &snap.Categories[ci]
		for pi := range cs.Products {
			p := cs.Products[pi]
			owns := false
			if key, ok := p.Key(); ok {
				owns = owner[key] == p.ID
			}
			recs = append(recs, catalog.ReplayRecord{
				Product: &p,
				Version: uint64(pi + 1),
				OwnsKey: owns,
			})
		}
	}
	return recs
}
