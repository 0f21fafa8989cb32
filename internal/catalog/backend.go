// Storage: the in-memory representation behind a Store.
//
// One RWMutex guards every map: categories, products (which is also the
// product ID index), per-category product lists and versions, and the
// UPC/MPN key table. Writes are a trickle (products synthesis adds)
// against a read per offer, and a durable write already serialises on
// the log, so one lock is all the traffic needs.
//
// Mutations are observable: an Observer attached with SetObserver is
// invoked synchronously inside the write critical section, so the
// observed sequence is exactly the commit sequence. That is the hook the
// durable write-ahead log hangs off, and the reason a log replay
// (Replay) can rebuild the store from a snapshot plus the tail of the
// log.
package catalog

import (
	"errors"
	"fmt"
	"sort"
)

// Observer receives committed mutations, synchronously, inside the write
// critical section. Implementations must not call back into the store.
type Observer interface {
	// ObserveCategory fires after a category is registered.
	ObserveCategory(c Category)
	// ObserveProduct fires after a product commits. version is the
	// category's version after the insertion; ownsKey reports whether
	// the product claimed its UPC/MPN key (false when shadowed or
	// keyless) — recorded so a replay reproduces first-insertion-wins
	// ownership without re-deriving it from log order.
	ObserveProduct(version uint64, ownsKey bool, p Product)
}

// ReplayRecord is one logged mutation: exactly one of Category or
// Product is set.
type ReplayRecord struct {
	Category *Category
	Product  *Product
	// Version is the category version after the product insertion.
	Version uint64
	// OwnsKey records whether the product owned its key at commit time.
	// Replay installs ownership from it rather than re-deciding first
	// insertion wins, so the recovered key table is the committed one
	// even for logs written by stores whose commit order and log order
	// could differ.
	OwnsKey bool
}

// SetObserver attaches the mutation observer (nil detaches). The observer
// runs inside the write critical section: the observed order is the
// commit order.
func (st *Store) SetObserver(obs Observer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.obs = obs
}

// AddCategory registers a category. The category is copied; later mutation
// of the argument does not affect the store.
func (st *Store) AddCategory(c Category) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.categories[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateCategory, c.ID)
	}
	cp := c
	cp.Schema.Attributes = append([]Attribute(nil), c.Schema.Attributes...)
	cp.Schema.byName = nil
	cp.Schema.buildNameIndex()
	st.categories[c.ID] = &cp
	if st.obs != nil {
		st.obs.ObserveCategory(cp)
	}
	return nil
}

// Category returns the category with the given ID.
func (st *Store) Category(id string) (Category, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, ok := st.categories[id]
	if !ok {
		return Category{}, false
	}
	return *c, true
}

// Categories returns all categories sorted by ID.
func (st *Store) Categories() []Category {
	st.mu.RLock()
	out := make([]Category, 0, len(st.categories))
	for _, c := range st.categories {
		out = append(out, *c)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumCategories returns the number of categories.
func (st *Store) NumCategories() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.categories)
}

// AddProductOutcome inserts a product like AddProduct and additionally
// reports non-fatal outcomes: a duplicate UPC/MPN key does not overwrite
// the key index (the earlier product keeps owning the key) and is
// surfaced through AddOutcome.KeyShadowedBy instead of silently skewing
// later ProductByKey lookups.
func (st *Store) AddProductOutcome(p Product) (AddOutcome, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, out, err := st.addLocked(p, false, "")
	return out, err
}

// AddProductAutoID inserts a product under a generated ID of the form
// "<prefix>-nokey-<n>", chosen while holding the store lock so that
// concurrent callers can never mint the same ID — the reservation and
// the insertion are one critical section. The chosen n is a per-store
// sequence that skips IDs already in use (e.g. after a snapshot load),
// so a generated ID never collides with an existing product. Returns the
// assigned ID; p.ID is ignored.
func (st *Store) AddProductAutoID(prefix string, p Product) (string, AddOutcome, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addLocked(p, true, prefix)
}

// addLocked validates p against its category and commits it; st.mu must
// be held. When mint is true, p.ID is assigned from the auto sequence
// ("<prefix>-nokey-<n>"), skipping IDs already in use, inside the same
// critical section that claims it. Error precedence: unknown category,
// then duplicate ID, then schema violation.
func (st *Store) addLocked(p Product, mint bool, prefix string) (string, AddOutcome, error) {
	cat, ok := st.categories[p.CategoryID]
	if !ok {
		return "", AddOutcome{}, fmt.Errorf("%w: %s (product %s)", ErrUnknownCategory, p.CategoryID, p.ID)
	}
	if !mint {
		if _, dup := st.products[p.ID]; dup {
			return "", AddOutcome{}, fmt.Errorf("%w: %s", ErrDuplicateProduct, p.ID)
		}
	}
	for _, av := range p.Spec {
		if !cat.Schema.Has(av.Name) {
			return "", AddOutcome{}, fmt.Errorf("%w: %q not in schema of %s", ErrSchemaViolation, av.Name, p.CategoryID)
		}
	}
	if mint {
		for {
			id := fmt.Sprintf("%s-nokey-%d", prefix, st.autoSeq)
			st.autoSeq++
			if _, taken := st.products[id]; !taken {
				p.ID = id
				break
			}
		}
	}
	// First insertion wins the key; a later product with the same key is
	// stored but shadowed.
	var out AddOutcome
	ownedKey := ""
	if key, ok := p.Key(); ok {
		if owner, dup := st.byKey[key]; dup {
			out.KeyShadowedBy = owner
		} else {
			ownedKey = key
		}
	}
	version := st.versions[p.CategoryID] + 1
	cp := st.insertLocked(p, version, ownedKey)
	if st.obs != nil {
		st.obs.ObserveProduct(version, ownedKey != "", cp)
	}
	return cp.ID, out, nil
}

// insertLocked appends a copy of an already validated p to its category
// at the given version and, when ownedKey is set, makes p that key's
// owner; st.mu must be held. Commit (addLocked) and replay
// (replayProduct) differ only in how they decide version and ownership.
func (st *Store) insertLocked(p Product, version uint64, ownedKey string) Product {
	cp := p
	cp.Spec = p.Spec.Clone()
	if ownedKey != "" {
		st.byKey[ownedKey] = cp.ID
	}
	st.products[cp.ID] = &cp
	st.byCategory[cp.CategoryID] = append(st.byCategory[cp.CategoryID], cp.ID)
	st.versions[cp.CategoryID] = version
	return cp
}

// Product returns the product with the given ID.
func (st *Store) Product(id string) (Product, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.productLocked(id)
}

// productLocked clones the product with the given ID; st.mu must be held.
func (st *Store) productLocked(id string) (Product, bool) {
	p, ok := st.products[id]
	if !ok {
		return Product{}, false
	}
	cp := *p
	cp.Spec = p.Spec.Clone()
	return cp, true
}

// ProductByKey returns the product whose UPC or MPN equals key. When
// several products were inserted with the same key, the first insertion
// owns it (later ones are reported shadowed by AddProductOutcome).
func (st *Store) ProductByKey(key string) (Product, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	id, ok := st.byKey[key]
	if !ok {
		return Product{}, false
	}
	return st.productLocked(id)
}

// CategoryVersion returns the category's mutation counter: it starts at 0
// and increments on every product insertion into the category. Caches keyed
// on a category's product set use it to detect staleness.
func (st *Store) CategoryVersion(categoryID string) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.versions[categoryID]
}

// ProductsInCategory returns the products of one category in insertion order.
func (st *Store) ProductsInCategory(categoryID string) []Product {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.productsLocked(st.byCategory[categoryID])
}

// ProductsInCategoryVersioned returns the products of one category in
// insertion order together with the category version the snapshot
// corresponds to, read atomically. Caches that later ask ProductsSince
// for a delta must seed from this version, not from a separately read
// CategoryVersion, or a concurrent insertion could slip between the two
// reads and be double-counted or lost.
func (st *Store) ProductsInCategoryVersioned(categoryID string) ([]Product, uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.productsLocked(st.byCategory[categoryID]), st.versions[categoryID]
}

// ProductsSince returns the products appended to a category after its
// first `since` insertions — the category's append log from version
// `since` to the returned current version. It is the incremental-update
// surface for caches built over a category's products: on a version bump,
// apply the delta instead of rebuilding from the full product list.
//
// ok is false when the delta cannot be derived: since is ahead of the
// category's version, or the category's history is not pure appends (no
// such mutation exists today; the check guards future ones). Callers must
// then rebuild from ProductsInCategoryVersioned.
func (st *Store) ProductsSince(categoryID string, since uint64) (added []Product, version uint64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v := st.versions[categoryID]
	ids := st.byCategory[categoryID]
	if since > v || uint64(len(ids)) != v {
		return nil, v, false
	}
	return st.productsLocked(ids[since:]), v, true
}

// NumProducts returns the number of products in the store.
func (st *Store) NumProducts() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.products)
}

// productsLocked clones the products with the given IDs; st.mu must be held.
func (st *Store) productsLocked(ids []string) []Product {
	out := make([]Product, len(ids))
	for i, id := range ids {
		out[i], _ = st.productLocked(id)
	}
	return out
}

// Snapshot captures the store's state atomically, under one read lock:
// categories sorted by ID, products in per-category insertion order,
// version counters, and the key ownership table sorted by key.
// Everything is deeply copied; later store mutation does not affect the
// snapshot.
func (st *Store) Snapshot() Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var snap Snapshot
	for id, c := range st.categories {
		cc := *c
		cc.Schema.Attributes = append([]Attribute(nil), c.Schema.Attributes...)
		cc.Schema.byName = nil
		snap.Categories = append(snap.Categories, CategorySnapshot{
			Category: cc,
			Version:  st.versions[id],
			Products: st.productsLocked(st.byCategory[id]),
		})
	}
	sortSnapshotCategories(&snap)
	keys := make([]string, 0, len(st.byKey))
	for k := range st.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap.Keys = make([]KeyOwner, len(keys))
	for i, k := range keys {
		snap.Keys[i] = KeyOwner{Key: k, ProductID: st.byKey[k]}
	}
	return snap
}

func sortSnapshotCategories(snap *Snapshot) {
	sort.Slice(snap.Categories, func(i, j int) bool {
		return snap.Categories[i].Category.ID < snap.Categories[j].Category.ID
	})
}

// Replay applies one logged mutation idempotently: records at or below
// the category's current version are skipped (the snapshot already covers
// them), the next version applies, anything further ahead is a gap error.
// Replay does not invoke the observer.
func (st *Store) Replay(rec ReplayRecord) error {
	switch {
	case rec.Category != nil:
		err := st.AddCategory(*rec.Category)
		if errors.Is(err, ErrDuplicateCategory) {
			return nil // snapshot already covers it
		}
		return err
	case rec.Product != nil:
		return st.replayProduct(rec)
	default:
		return errors.New("catalog: empty replay record")
	}
}

func (st *Store) replayProduct(rec ReplayRecord) error {
	p := *rec.Product
	st.mu.Lock()
	defer st.mu.Unlock()
	cat, ok := st.categories[p.CategoryID]
	if !ok {
		return fmt.Errorf("%w: %s (replayed product %s)", ErrUnknownCategory, p.CategoryID, p.ID)
	}
	cur := st.versions[p.CategoryID]
	if rec.Version <= cur {
		return nil // snapshot already covers this append
	}
	if rec.Version != cur+1 {
		return fmt.Errorf("catalog: replay gap in category %s: record is version %d, store is at %d", p.CategoryID, rec.Version, cur)
	}
	// Logged records were validated at commit time, but the log is an
	// external input at replay time — re-validate rather than trust it.
	for _, av := range p.Spec {
		if !cat.Schema.Has(av.Name) {
			return fmt.Errorf("%w: %q not in schema of %s (replayed product %s)", ErrSchemaViolation, av.Name, p.CategoryID, p.ID)
		}
	}
	if _, dup := st.products[p.ID]; dup {
		return fmt.Errorf("%w: %s (replayed)", ErrDuplicateProduct, p.ID)
	}
	// Key ownership comes from the record, not first-insertion-wins at
	// replay time, so the recovered key table matches the committed one.
	ownedKey := ""
	if rec.OwnsKey {
		key, ok := p.Key()
		if !ok {
			return fmt.Errorf("catalog: replayed product %s claims key ownership but has no key", p.ID)
		}
		if owner, dup := st.byKey[key]; dup && owner != p.ID {
			return fmt.Errorf("catalog: replayed key %q already owned by %s", key, owner)
		}
		ownedKey = key
	}
	st.insertLocked(p, rec.Version, ownedKey)
	return nil
}

// loadSnapshot installs validated snapshot state; the store must be empty
// and not yet shared. Called by FromSnapshot after its consistency
// checks, so no validation happens here.
func (st *Store) loadSnapshot(snap Snapshot) {
	for _, cs := range snap.Categories {
		cc := cs.Category
		cc.Schema.Attributes = append([]Attribute(nil), cs.Category.Schema.Attributes...)
		cc.Schema.byName = nil
		cc.Schema.buildNameIndex()
		st.categories[cc.ID] = &cc
		if cs.Version != 0 {
			st.versions[cc.ID] = cs.Version
		}
		if len(cs.Products) > 0 {
			ids := make([]string, 0, len(cs.Products))
			for _, p := range cs.Products {
				cp := p
				cp.Spec = p.Spec.Clone()
				st.products[cp.ID] = &cp
				ids = append(ids, cp.ID)
			}
			st.byCategory[cc.ID] = ids
		}
	}
	for _, ko := range snap.Keys {
		st.byKey[ko.Key] = ko.ProductID
	}
}
