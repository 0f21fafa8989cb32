// Snapshot: versioned binary persistence for the catalog store — the
// second half of warm start, alongside the model snapshot in
// internal/core. A Store serializes to a framed block (magic + version +
// length + CRC32 header over a deterministic payload, shared framing in
// internal/snapfmt) capturing categories with their schemas, products in
// per-category insertion order, the per-category version counters, and
// the key-index ownership table; decoding rebuilds every index so the
// loaded store is behaviorally identical to the original — including
// ProductsSince deltas and CategoryVersion-driven cache invalidation.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"prodsynth/internal/snapfmt"
)

// SnapshotVersion is the on-disk format version written by EncodeStore.
// DecodeStore rejects any other version.
const SnapshotVersion = 1

// ErrBadSnapshot is wrapped by every DecodeStore error caused by the
// input (bad magic, unsupported version, checksum mismatch, truncation,
// malformed or inconsistent payload) — as opposed to I/O errors from the
// reader.
var ErrBadSnapshot = errors.New("catalog: invalid catalog snapshot")

var snapshotMagic = [4]byte{'P', 'S', 'C', 'T'}

// maxSnapshotPayload bounds the payload length DecodeStore accepts, so a
// corrupt header cannot demand an absurd read.
const maxSnapshotPayload = 1 << 30

// validKind reports whether k is one of the defined attribute kinds —
// the range the snapshot codec accepts, on both the save and load side.
func validKind(k AttributeKind) bool {
	return k >= KindCategorical && k <= KindIdentifier
}

// Snapshot is the serializable deep copy of a Store's logical state. It
// is plain data — no locks, no index maps — so it can be encoded or moved
// across a process boundary. Obtain one with Store.Snapshot (one
// consistent capture under the store's read lock) and rebuild with
// FromSnapshot.
type Snapshot struct {
	// Categories holds every category sorted by ID, each with its
	// products in insertion order and its version counter.
	Categories []CategorySnapshot
	// Keys is the key-index ownership table sorted by key: which product
	// owns each UPC/MPN key. Recorded explicitly because ownership is
	// first-insertion-wins across the whole store, which per-category
	// product order alone cannot reconstruct when a key is shared across
	// categories.
	Keys []KeyOwner
}

// CategorySnapshot is one category's slice of a Snapshot.
type CategorySnapshot struct {
	Category Category
	// Version is the category's mutation counter (see CategoryVersion).
	Version uint64
	// Products are the category's products in insertion order.
	Products []Product
}

// KeyOwner records that ProductID owns Key in the store's key index.
type KeyOwner struct {
	Key       string
	ProductID string
}

// MergeSnapshots combines several snapshots into one, restoring the
// deterministic ordering Snapshot guarantees: categories sorted by ID,
// keys sorted by key. It reads data directories written when the store
// was split into category shards, one snapshot file per shard. The
// inputs must be disjoint (each category and key in exactly one part),
// which FromSnapshot's consistency checks enforce when the merge is
// loaded.
func MergeSnapshots(parts []Snapshot) Snapshot {
	var snap Snapshot
	for _, s := range parts {
		snap.Categories = append(snap.Categories, s.Categories...)
		snap.Keys = append(snap.Keys, s.Keys...)
	}
	sortSnapshotCategories(&snap)
	sort.Slice(snap.Keys, func(i, j int) bool { return snap.Keys[i].Key < snap.Keys[j].Key })
	return snap
}

// FromSnapshot rebuilds a Store from a snapshot, reconstructing the
// category, key, and schema-name indexes, and validating the snapshot's
// internal consistency: category and product IDs must be unique, every
// product must belong to its enclosing category and conform to its
// schema, and the key table must cover exactly the keys the products
// carry, each owned by a product actually holding that key. The rebuilt
// store is behaviorally identical to the one the snapshot was taken
// from.
func FromSnapshot(snap Snapshot) (*Store, error) {
	if err := validateSnapshot(snap); err != nil {
		return nil, err
	}
	st := NewStore()
	st.loadSnapshot(snap)
	return st, nil
}

// validateSnapshot runs the consistency checks FromSnapshot promises,
// against transient indexes rather than a live store.
func validateSnapshot(snap Snapshot) error {
	cats := make(map[string]*Category, len(snap.Categories))
	prods := make(map[string]*Product)
	for ci := range snap.Categories {
		cs := &snap.Categories[ci]
		c := cs.Category
		if c.ID == "" {
			return errors.New("catalog: snapshot category with empty ID")
		}
		if _, dup := cats[c.ID]; dup {
			return fmt.Errorf("catalog: snapshot has duplicate category %s", c.ID)
		}
		for _, a := range c.Schema.Attributes {
			if !validKind(a.Kind) {
				return fmt.Errorf("catalog: snapshot attribute %q in %s has invalid kind %d", a.Name, c.ID, a.Kind)
			}
		}
		cc := c
		cc.Schema.Attributes = append([]Attribute(nil), c.Schema.Attributes...)
		cc.Schema.byName = nil
		cc.Schema.buildNameIndex()
		cats[cc.ID] = &cc
		for pi := range cs.Products {
			p := &cs.Products[pi]
			if p.ID == "" {
				return fmt.Errorf("catalog: snapshot product with empty ID in %s", cc.ID)
			}
			if p.CategoryID != cc.ID {
				return fmt.Errorf("catalog: snapshot product %s claims category %s inside %s", p.ID, p.CategoryID, cc.ID)
			}
			if _, dup := prods[p.ID]; dup {
				return fmt.Errorf("catalog: snapshot has duplicate product %s", p.ID)
			}
			for _, av := range p.Spec {
				if !cc.Schema.Has(av.Name) {
					return fmt.Errorf("catalog: snapshot product %s: %q not in schema of %s", p.ID, av.Name, cc.ID)
				}
			}
			prods[p.ID] = p
		}
		// The store's only mutation today is an append, so a category's
		// version always equals its product count — and ProductsSince
		// depends on that equality to serve deltas. Reject snapshots that
		// break it, or the loaded store would silently degrade every
		// incremental index update into a full rebuild.
		if cs.Version != uint64(len(cs.Products)) {
			return fmt.Errorf("catalog: snapshot category %s has version %d but %d products", cc.ID, cs.Version, len(cs.Products))
		}
	}
	seenKeys := make(map[string]bool, len(snap.Keys))
	for _, ko := range snap.Keys {
		if seenKeys[ko.Key] {
			return fmt.Errorf("catalog: snapshot key table repeats key %q", ko.Key)
		}
		seenKeys[ko.Key] = true
		owner, ok := prods[ko.ProductID]
		if !ok {
			return fmt.Errorf("catalog: snapshot key %q owned by unknown product %s", ko.Key, ko.ProductID)
		}
		if k, ok := owner.Key(); !ok || k != ko.Key {
			return fmt.Errorf("catalog: snapshot key %q owner %s does not carry that key", ko.Key, ko.ProductID)
		}
	}
	// Coverage: every key a product carries must have an owner, or a
	// forged snapshot could hide products from ProductByKey.
	for id, p := range prods {
		if k, ok := p.Key(); ok {
			if !seenKeys[k] {
				return fmt.Errorf("catalog: snapshot key table misses key %q of product %s", k, id)
			}
		}
	}
	return nil
}

// EncodeStore writes a versioned, checksummed snapshot of the store. The
// output is deterministic: encoding the same logical state twice yields
// identical bytes, so snapshots can be content-addressed and diffed.
func EncodeStore(w io.Writer, st *Store) error {
	if st == nil {
		return errors.New("catalog: nil store")
	}
	return EncodeSnapshot(w, st.Snapshot())
}

// EncodeSnapshot writes one snapshot as a framed block — the same format
// EncodeStore produces, exposed so a captured Snapshot value (the
// durable layer's compaction) serializes onto the shared framing.
func EncodeSnapshot(w io.Writer, snap Snapshot) error {
	var p snapfmt.Writer
	p.U32(uint32(len(snap.Categories)))
	for _, cs := range snap.Categories {
		p.Str(cs.Category.ID)
		p.Str(cs.Category.Name)
		p.Str(cs.Category.TopLevel)
		p.U32(uint32(len(cs.Category.Schema.Attributes)))
		for _, a := range cs.Category.Schema.Attributes {
			// An out-of-range kind would encode fine but fail every
			// decode — reject it at save time, like the payload cap.
			if !validKind(a.Kind) {
				return fmt.Errorf("catalog: snapshot attribute %q in %s has invalid kind %d", a.Name, cs.Category.ID, a.Kind)
			}
			p.Str(a.Name)
			p.U32(uint32(a.Kind))
			p.Str(a.Unit)
		}
		p.U64(cs.Version)
		p.U32(uint32(len(cs.Products)))
		for _, prod := range cs.Products {
			// CategoryID is implied by the enclosing category; reject
			// snapshots that disagree rather than silently rewriting.
			if prod.CategoryID != cs.Category.ID {
				return fmt.Errorf("catalog: snapshot product %s claims category %s inside %s",
					prod.ID, prod.CategoryID, cs.Category.ID)
			}
			p.Str(prod.ID)
			p.U32(uint32(len(prod.Spec)))
			for _, av := range prod.Spec {
				p.Str(av.Name)
				p.Str(av.Value)
			}
		}
	}
	p.U32(uint32(len(snap.Keys)))
	for _, ko := range snap.Keys {
		p.Str(ko.Key)
		p.Str(ko.ProductID)
	}
	return snapfmt.Encode(w, snapshotMagic, SnapshotVersion, maxSnapshotPayload, p.Bytes())
}

// DecodeStore parses a snapshot written by EncodeStore, strictly: any
// deviation from the format — wrong magic, unknown version, length or
// checksum mismatch, truncated or trailing bytes, an out-of-range
// attribute kind, or a payload whose indexes cannot be rebuilt
// consistently — is an error wrapping ErrBadSnapshot, never a panic or a
// partially filled store.
func DecodeStore(r io.Reader) (*Store, error) {
	st, err := DecodeStoreFrom(r)
	if err != nil {
		return nil, err
	}
	if err := snapfmt.ExpectEOF(r, ErrBadSnapshot); err != nil {
		return nil, err
	}
	return st, nil
}

// DecodeStoreFrom parses exactly one snapshot block and leaves the
// reader positioned after it — the entry point for composite artifacts
// (the catalog+model bundle) where another block follows. DecodeStore is
// this plus a trailing-data check.
func DecodeStoreFrom(r io.Reader) (*Store, error) {
	snap, err := DecodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	st, err := FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return st, nil
}

// DecodeSnapshot parses one snapshot block into a plain Snapshot without
// building a store — the shape durable recovery needs, where the
// epoch's snapshot files are merged (MergeSnapshots) and validated once
// by FromSnapshot. The framing and payload strictness match DecodeStore;
// the cross-index consistency checks are FromSnapshot's job.
func DecodeSnapshot(r io.Reader) (Snapshot, error) {
	payload, err := snapfmt.Decode(r, snapshotMagic, SnapshotVersion, maxSnapshotPayload, ErrBadSnapshot)
	if err != nil {
		return Snapshot{}, err
	}
	d := snapfmt.NewReader(payload, ErrBadSnapshot)
	snap := decodeSnapshot(d)
	if err := d.Finish(); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

func decodeSnapshot(d *snapfmt.Reader) Snapshot {
	var snap Snapshot
	// Smallest category: three empty strings (4 each) + attribute count
	// (4) + version (8) + product count (4).
	nCats := d.Count("categories", 3*4+4+8+4)
	for i := 0; i < nCats && d.Err() == nil; i++ {
		cs := CategorySnapshot{Category: Category{
			ID:       d.Str(),
			Name:     d.Str(),
			TopLevel: d.Str(),
		}}
		// Smallest attribute: empty name (4) + kind (4) + empty unit (4).
		nAttrs := d.Count("schema attributes", 12)
		for j := 0; j < nAttrs && d.Err() == nil; j++ {
			// Kind range is validated once, in FromSnapshot, which every
			// decode runs through.
			a := Attribute{Name: d.Str(), Kind: AttributeKind(d.U32()), Unit: d.Str()}
			cs.Category.Schema.Attributes = append(cs.Category.Schema.Attributes, a)
		}
		cs.Version = d.U64()
		// Smallest product: empty ID (4) + pair count (4).
		nProds := d.Count("products", 8)
		for j := 0; j < nProds && d.Err() == nil; j++ {
			prod := Product{ID: d.Str(), CategoryID: cs.Category.ID}
			// Smallest pair: empty name (4) + empty value (4).
			nPairs := d.Count("spec pairs", 8)
			for k := 0; k < nPairs && d.Err() == nil; k++ {
				prod.Spec = append(prod.Spec, AttributeValue{Name: d.Str(), Value: d.Str()})
			}
			cs.Products = append(cs.Products, prod)
		}
		snap.Categories = append(snap.Categories, cs)
	}
	// Smallest key entry: empty key (4) + empty product ID (4).
	nKeys := d.Count("key table", 8)
	for i := 0; i < nKeys && d.Err() == nil; i++ {
		snap.Keys = append(snap.Keys, KeyOwner{Key: d.Str(), ProductID: d.Str()})
	}
	return snap
}
