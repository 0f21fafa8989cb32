// Storage: the sharded in-memory representation behind a Store.
//
// Categories are sharded by ID hash. Each shard owns its categories,
// their product lists, and their version counters under its own RWMutex,
// so reads and writes against different categories never contend. The
// two store-global indexes — product ID -> shard and UPC/MPN key ->
// owning product — live in a small directory with its own lock, held only
// for map lookups inside a shard's critical section (lock order: shard,
// then directory).
//
// Mutations are observable: an Observer attached with SetObserver is
// invoked synchronously inside the shard critical section, so the
// observed per-category sequence is exactly the version sequence. That
// is the hook the durable write-ahead log hangs off, and the reason a
// log replay (Replay) can rebuild the store from per-shard snapshots
// plus the tail of the log.
package catalog

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultShards is the shard count NewStore uses. Small enough that
// per-shard snapshot files stay coarse, large enough that concurrent
// ingestion into distinct categories rarely shares a lock.
const DefaultShards = 8

// Observer receives committed mutations, synchronously, inside the shard
// critical section. Implementations must not call back into the store.
type Observer interface {
	// ObserveCategory fires after a category is registered.
	ObserveCategory(c Category)
	// ObserveProduct fires after a product commits. version is the
	// category's version after the insertion; ownsKey reports whether
	// the product claimed its UPC/MPN key (false when shadowed or
	// keyless) — recorded so a replay reproduces first-insertion-wins
	// ownership even across shards, where commit order and log order
	// may differ.
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
	OwnsKey bool
}

// observerBox wraps the Observer so atomic.Value always stores one
// concrete type (and can hold "no observer").
type observerBox struct{ obs Observer }

type shard struct {
	mu         sync.RWMutex
	categories map[string]*Category
	products   map[string]*Product
	byCategory map[string][]string // category ID -> product IDs (insertion order)
	versions   map[string]uint64   // category ID -> mutation counter
}

// directory holds the store-global indexes. Lock order: a shard's mu is
// always acquired before dir.mu, never the reverse.
type directory struct {
	mu      sync.RWMutex
	ids     map[string]int    // product ID -> owning shard
	byKey   map[string]string // key value -> product ID (first insertion wins)
	autoSeq uint64            // next candidate suffix for AddProductAutoID
}

// NumShards reports the store's shard count.
func (st *Store) NumShards() int { return len(st.shards) }

func (st *Store) shardOf(categoryID string) int {
	h := fnv.New32a()
	h.Write([]byte(categoryID))
	return int(h.Sum32() % uint32(len(st.shards)))
}

func (st *Store) observer() Observer {
	return st.obs.Load().(observerBox).obs
}

// SetObserver attaches the mutation observer (nil detaches). The observer
// runs inside the shard critical section: per category, the observed
// order is the version order.
func (st *Store) SetObserver(obs Observer) {
	st.obs.Store(observerBox{obs: obs})
}

// AddCategory registers a category. The category is copied; later mutation
// of the argument does not affect the store.
func (st *Store) AddCategory(c Category) error {
	sh := &st.shards[st.shardOf(c.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.categories[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateCategory, c.ID)
	}
	cp := c
	cp.Schema.Attributes = append([]Attribute(nil), c.Schema.Attributes...)
	cp.Schema.byName = nil
	cp.Schema.buildNameIndex()
	sh.categories[c.ID] = &cp
	if obs := st.observer(); obs != nil {
		obs.ObserveCategory(cp)
	}
	return nil
}

// Category returns the category with the given ID.
func (st *Store) Category(id string) (Category, bool) {
	sh := &st.shards[st.shardOf(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.categories[id]
	if !ok {
		return Category{}, false
	}
	return *c, true
}

// Categories returns all categories sorted by ID.
func (st *Store) Categories() []Category {
	var out []Category
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, c := range sh.categories {
			out = append(out, *c)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumCategories returns the number of categories.
func (st *Store) NumCategories() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.categories)
		sh.mu.RUnlock()
	}
	return n
}

// AddProductOutcome inserts a product like AddProduct and additionally
// reports non-fatal outcomes: a duplicate UPC/MPN key does not overwrite
// the key index (the earlier product keeps owning the key) and is
// surfaced through AddOutcome.KeyShadowedBy instead of silently skewing
// later ProductByKey lookups.
func (st *Store) AddProductOutcome(p Product) (AddOutcome, error) {
	shi := st.shardOf(p.CategoryID)
	sh := &st.shards[shi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, out, err := st.addLocked(sh, shi, p, false, "")
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
	shi := st.shardOf(p.CategoryID)
	sh := &st.shards[shi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.addLocked(sh, shi, p, true, prefix)
}

// addLocked validates p against its category and commits it; sh.mu must
// be held. When mint is true, p.ID is assigned from the auto sequence
// ("<prefix>-nokey-<n>"), skipping IDs already in use, inside the same
// critical section that claims it — concurrent callers can never mint
// the same ID. Error precedence matches the pre-sharding store: unknown
// category, then duplicate ID, then schema violation.
func (st *Store) addLocked(sh *shard, shi int, p Product, mint bool, prefix string) (string, AddOutcome, error) {
	cat, ok := sh.categories[p.CategoryID]
	if !ok {
		return "", AddOutcome{}, fmt.Errorf("%w: %s (product %s)", ErrUnknownCategory, p.CategoryID, p.ID)
	}
	d := &st.dir
	d.mu.Lock()
	if !mint {
		if _, dup := d.ids[p.ID]; dup {
			d.mu.Unlock()
			return "", AddOutcome{}, fmt.Errorf("%w: %s", ErrDuplicateProduct, p.ID)
		}
	}
	for _, av := range p.Spec {
		if !cat.Schema.Has(av.Name) {
			d.mu.Unlock()
			return "", AddOutcome{}, fmt.Errorf("%w: %q not in schema of %s", ErrSchemaViolation, av.Name, p.CategoryID)
		}
	}
	if mint {
		for {
			id := fmt.Sprintf("%s-nokey-%d", prefix, d.autoSeq)
			d.autoSeq++
			if _, taken := d.ids[id]; !taken {
				p.ID = id
				break
			}
		}
	}
	cp := p
	cp.Spec = p.Spec.Clone()
	var out AddOutcome
	ownsKey := false
	if key, ok := cp.Key(); ok {
		if owner, dup := d.byKey[key]; dup {
			out.KeyShadowedBy = owner
		} else {
			d.byKey[key] = cp.ID
			ownsKey = true
		}
	}
	d.ids[cp.ID] = shi
	d.mu.Unlock()
	sh.products[cp.ID] = &cp
	sh.byCategory[cp.CategoryID] = append(sh.byCategory[cp.CategoryID], cp.ID)
	sh.versions[cp.CategoryID]++
	if obs := st.observer(); obs != nil {
		obs.ObserveProduct(sh.versions[cp.CategoryID], ownsKey, cp)
	}
	return cp.ID, out, nil
}

// Product returns the product with the given ID.
func (st *Store) Product(id string) (Product, bool) {
	st.dir.mu.RLock()
	shi, ok := st.dir.ids[id]
	st.dir.mu.RUnlock()
	if !ok {
		return Product{}, false
	}
	// The directory entry is written inside the owning shard's critical
	// section, so by the time this RLock is granted the product is in
	// the shard maps.
	sh := &st.shards[shi]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p, ok := sh.products[id]
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
	st.dir.mu.RLock()
	id, ok := st.dir.byKey[key]
	st.dir.mu.RUnlock()
	if !ok {
		return Product{}, false
	}
	return st.Product(id)
}

// CategoryVersion returns the category's mutation counter: it starts at 0
// and increments on every product insertion into the category. Caches keyed
// on a category's product set use it to detect staleness.
func (st *Store) CategoryVersion(categoryID string) uint64 {
	sh := &st.shards[st.shardOf(categoryID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.versions[categoryID]
}

// ProductsInCategory returns the products of one category in insertion order.
func (st *Store) ProductsInCategory(categoryID string) []Product {
	sh := &st.shards[st.shardOf(categoryID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.productsLocked(sh.byCategory[categoryID])
}

// ProductsInCategoryVersioned returns the products of one category in
// insertion order together with the category version the snapshot
// corresponds to, read atomically. Caches that later ask ProductsSince
// for a delta must seed from this version, not from a separately read
// CategoryVersion, or a concurrent insertion could slip between the two
// reads and be double-counted or lost.
func (st *Store) ProductsInCategoryVersioned(categoryID string) ([]Product, uint64) {
	sh := &st.shards[st.shardOf(categoryID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.productsLocked(sh.byCategory[categoryID]), sh.versions[categoryID]
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
	sh := &st.shards[st.shardOf(categoryID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v := sh.versions[categoryID]
	ids := sh.byCategory[categoryID]
	if since > v || uint64(len(ids)) != v {
		return nil, v, false
	}
	return sh.productsLocked(ids[since:]), v, true
}

// NumProducts returns the number of products in the store.
func (st *Store) NumProducts() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.products)
		sh.mu.RUnlock()
	}
	return n
}

// productsLocked clones the products with the given IDs; sh.mu must be held.
func (sh *shard) productsLocked(ids []string) []Product {
	out := make([]Product, 0, len(ids))
	for _, id := range ids {
		p := sh.products[id]
		cp := *p
		cp.Spec = p.Spec.Clone()
		out = append(out, cp)
	}
	return out
}

// Snapshot captures the store's state atomically: categories sorted by
// ID, products in per-category insertion order, version counters, and
// the key ownership table sorted by key. Everything is deeply copied;
// later store mutation does not affect the snapshot. Every shard RLock
// plus the directory RLock are held together, so no mutation can land
// between two shards' captures.
func (st *Store) Snapshot() Snapshot {
	for i := range st.shards {
		st.shards[i].mu.RLock()
	}
	st.dir.mu.RLock()
	defer func() {
		st.dir.mu.RUnlock()
		for i := range st.shards {
			st.shards[i].mu.RUnlock()
		}
	}()
	var snap Snapshot
	for i := range st.shards {
		snap.Categories = append(snap.Categories, st.shards[i].categoriesLocked()...)
	}
	sortSnapshotCategories(&snap)
	snap.Keys = st.dir.keysLocked(nil)
	return snap
}

// ShardSnapshot captures one shard: its categories (with versions and
// products) and the slice of the key table owned by its products. The
// union of all shard snapshots is exactly Snapshot (modulo the capture
// not being atomic across separate calls).
func (st *Store) ShardSnapshot(i int) Snapshot {
	sh := &st.shards[i]
	sh.mu.RLock()
	st.dir.mu.RLock()
	defer func() {
		st.dir.mu.RUnlock()
		sh.mu.RUnlock()
	}()
	var snap Snapshot
	snap.Categories = sh.categoriesLocked()
	sortSnapshotCategories(&snap)
	snap.Keys = st.dir.keysLocked(func(ownerID string) bool {
		return st.dir.ids[ownerID] == i
	})
	return snap
}

// categoriesLocked captures the shard's categories unsorted; sh.mu held.
func (sh *shard) categoriesLocked() []CategorySnapshot {
	out := make([]CategorySnapshot, 0, len(sh.categories))
	for id, c := range sh.categories {
		cc := *c
		cc.Schema.Attributes = append([]Attribute(nil), c.Schema.Attributes...)
		cc.Schema.byName = nil
		out = append(out, CategorySnapshot{
			Category: cc,
			Version:  sh.versions[id],
			Products: sh.productsLocked(sh.byCategory[id]),
		})
	}
	return out
}

func sortSnapshotCategories(snap *Snapshot) {
	sort.Slice(snap.Categories, func(i, j int) bool {
		return snap.Categories[i].Category.ID < snap.Categories[j].Category.ID
	})
}

// keysLocked captures the key table sorted by key, filtered by owner
// when keep is non-nil; dir.mu must be held.
func (d *directory) keysLocked(keep func(ownerID string) bool) []KeyOwner {
	keys := make([]string, 0, len(d.byKey))
	for k, owner := range d.byKey {
		if keep == nil || keep(owner) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]KeyOwner, 0, len(keys))
	for _, k := range keys {
		out = append(out, KeyOwner{Key: k, ProductID: d.byKey[k]})
	}
	return out
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
	shi := st.shardOf(p.CategoryID)
	sh := &st.shards[shi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cat, ok := sh.categories[p.CategoryID]
	if !ok {
		return fmt.Errorf("%w: %s (replayed product %s)", ErrUnknownCategory, p.CategoryID, p.ID)
	}
	cur := sh.versions[p.CategoryID]
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
	d := &st.dir
	d.mu.Lock()
	if _, dup := d.ids[p.ID]; dup {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s (replayed)", ErrDuplicateProduct, p.ID)
	}
	cp := p
	cp.Spec = p.Spec.Clone()
	// Key ownership comes from the record, not first-insertion-wins at
	// replay time: commit order and log order can differ across shards,
	// and the recovered key table must match the original's.
	if rec.OwnsKey {
		key, ok := cp.Key()
		if !ok {
			d.mu.Unlock()
			return fmt.Errorf("catalog: replayed product %s claims key ownership but has no key", cp.ID)
		}
		if owner, dup := d.byKey[key]; dup && owner != cp.ID {
			d.mu.Unlock()
			return fmt.Errorf("catalog: replayed key %q already owned by %s", key, owner)
		}
		d.byKey[key] = cp.ID
	}
	d.ids[cp.ID] = shi
	d.mu.Unlock()
	sh.products[cp.ID] = &cp
	sh.byCategory[cp.CategoryID] = append(sh.byCategory[cp.CategoryID], cp.ID)
	sh.versions[cp.CategoryID] = rec.Version
	return nil
}

// loadSnapshot installs validated snapshot state; the store must be empty
// and not yet shared. Called by FromSnapshot after its consistency
// checks, so no validation happens here.
func (st *Store) loadSnapshot(snap Snapshot) {
	for _, cs := range snap.Categories {
		shi := st.shardOf(cs.Category.ID)
		sh := &st.shards[shi]
		cc := cs.Category
		cc.Schema.Attributes = append([]Attribute(nil), cs.Category.Schema.Attributes...)
		cc.Schema.byName = nil
		cc.Schema.buildNameIndex()
		sh.categories[cc.ID] = &cc
		if cs.Version != 0 {
			sh.versions[cc.ID] = cs.Version
		}
		if len(cs.Products) > 0 {
			ids := make([]string, 0, len(cs.Products))
			for _, p := range cs.Products {
				cp := p
				cp.Spec = p.Spec.Clone()
				sh.products[cp.ID] = &cp
				st.dir.ids[cp.ID] = shi
				ids = append(ids, cp.ID)
			}
			sh.byCategory[cc.ID] = ids
		}
	}
	for _, ko := range snap.Keys {
		st.dir.byKey[ko.Key] = ko.ProductID
	}
}
