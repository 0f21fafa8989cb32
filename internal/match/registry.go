package match

import (
	"container/list"
	"sync"
	"sync/atomic"

	"prodsynth/internal/catalog"
)

// Registry is a shared, process-wide cache of per-category matching state:
// the inverted TitleIndex. Before it existed, every worker goroutine of
// every Matcher.Run call rebuilt it from scratch — W workers × C
// categories redundant builds per run, and the whole cost again on the
// next run. The registry builds each category exactly once (sync.Once per
// entry) no matter how many goroutines race for it, and keeps the result
// warm across Matcher.Run calls, so repeated matching against the same
// catalog — the batch-synthesis and serving workloads — pays the build
// cost only on first touch.
//
// Entries are validated against catalog.Store.CategoryVersion on every
// acquisition: when Store.AddProduct bumps a category's version (as
// System.AddToCatalog does), the stale entry is replaced on the next
// lookup, and the replacement's title index is built by applying the
// catalog's append log as a posting-list delta (Store.ProductsSince)
// instead of re-tokenizing the whole category. In-flight matches keep the
// snapshot they started with.
//
// One mutex guards the entry map and its LRU. A bound matcher
// (Matcher.Bind) looks each category up once per run, not once per offer,
// so the lock sees a handful of acquisitions per run and nothing to
// spread. With a MaxEntries bound configured, the least recently touched
// categories are evicted and simply rebuild on their next touch. See
// RegistryOptions.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	entries    map[registryKey]*registryEntry
	lru        list.List // front = most recently touched; values are registryKey
	maxEntries int       // <= 0: unbounded
	builds     atomic.Int64
	deltas     atomic.Int64
}

// RegistryOptions configures a Registry. The zero value is unbounded.
type RegistryOptions struct {
	// MaxEntries bounds the number of cached category entries; 0 means
	// unbounded. The bound is exact: once a new entry would exceed it,
	// the least recently touched entry is evicted. Evicted categories
	// rebuild on next touch.
	MaxEntries int
}

type registryKey struct {
	store    *catalog.Store
	category string
}

// registryEntry caches one category's matching state at one store version;
// the index builds lazily on first touch.
type registryEntry struct {
	version uint64        // store version observed when the entry was created
	elem    *list.Element // LRU position

	// Lineage for incremental index updates: when this entry replaces a
	// stale one whose index was already built, prevIndex/prevVersion seed
	// a posting-list delta instead of a cold rebuild.
	prevIndex   *TitleIndex
	prevVersion uint64

	idxOnce    sync.Once
	idxDone    atomic.Bool   // set after index, publishes it to entry()
	idxVersion atomic.Uint64 // catalog version the built index covers
	index      *TitleIndex
}

// DefaultRegistry is the process-wide registry used by Matcher when no
// explicit Registry is set.
var DefaultRegistry = NewRegistry()

// NewRegistry returns an empty registry with default options. Most
// callers should use DefaultRegistry; private registries exist for tests
// and for callers that need independent lifecycles or bounds.
func NewRegistry() *Registry {
	return NewRegistryWithOptions(RegistryOptions{})
}

// NewRegistryWithOptions returns an empty registry with the given
// memory bound.
func NewRegistryWithOptions(o RegistryOptions) *Registry {
	return &Registry{
		entries:    make(map[registryKey]*registryEntry),
		maxEntries: o.MaxEntries,
	}
}

// entry returns the live cache entry for (store, category), replacing any
// entry built at an older store version. The comparison is strictly
// "older": a goroutine whose version read predates a concurrent AddProduct
// must not evict the newer entry another goroutine already installed, or
// the two would thrash rebuilding each other's work.
func (r *Registry) entry(store *catalog.Store, category string) *registryEntry {
	v := store.CategoryVersion(category)
	k := registryKey{store: store, category: category}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[k]
	if e != nil && e.version >= v {
		r.lru.MoveToFront(e.elem)
		return e
	}
	ne := &registryEntry{version: v}
	if e != nil {
		if e.idxDone.Load() {
			ne.prevIndex = e.index
			ne.prevVersion = e.idxVersion.Load()
		}
		r.lru.Remove(e.elem)
	}
	ne.elem = r.lru.PushFront(k)
	r.entries[k] = ne
	for r.maxEntries > 0 && len(r.entries) > r.maxEntries {
		back := r.lru.Back()
		r.lru.Remove(back)
		delete(r.entries, back.Value.(registryKey))
	}
	return ne
}

// TitleIndex returns the category's inverted title index. A first touch
// builds it from the full product list; a touch after a version bump
// extends the previous index with the catalog's append log — a
// posting-list delta that skips re-tokenizing the existing products.
// (A delta still copies the vocabulary map and posting-list headers, so
// it costs O(vocabulary + new products), not O(new products): the win
// over a cold build is dropping the O(category) re-tokenization, which
// dominates.)
func (r *Registry) TitleIndex(store *catalog.Store, category string) *TitleIndex {
	e := r.entry(store, category)
	e.idxOnce.Do(func() {
		// The lineage seed is dropped once consumed: holding it past the
		// build would pin the previous generation's index (its vocabulary
		// map is not shared) for the life of the entry.
		prev := e.prevIndex
		e.prevIndex = nil
		if prev != nil {
			if added, v, ok := store.ProductsSince(category, e.prevVersion); ok {
				e.index = prev.extend(added)
				e.idxVersion.Store(v)
				e.idxDone.Store(true)
				r.deltas.Add(1)
				return
			}
		}
		products, v := store.ProductsInCategoryVersioned(category)
		e.index = NewTitleIndex(products)
		e.idxVersion.Store(v)
		e.idxDone.Store(true)
		r.builds.Add(1)
	})
	return e.index
}

// Builds reports how many cold category index builds the registry has
// performed — the regression surface for "build once per category
// regardless of worker count". Incremental index updates do not count;
// see Deltas.
func (r *Registry) Builds() int64 { return r.builds.Load() }

// Deltas reports how many incremental index updates (posting-list deltas
// applied after a category version bump) the registry has performed.
func (r *Registry) Deltas() int64 { return r.deltas.Load() }

// Entries reports the number of cached category entries — the quantity
// RegistryOptions.MaxEntries bounds.
func (r *Registry) Entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Invalidate drops the cached entry for one (store, category) pair.
// Version validation makes this unnecessary after Store.AddProduct; it
// exists for callers that mutate matching-relevant state the store cannot
// see. The next touch rebuilds cold.
func (r *Registry) Invalidate(store *catalog.Store, category string) {
	k := registryKey{store: store, category: category}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[k]; e != nil {
		r.lru.Remove(e.elem)
		delete(r.entries, k)
	}
}

// ReleaseStore drops every entry of one store, releasing the memory (and
// the store reference) held for it. Call when a store goes out of use in a
// long-lived process.
func (r *Registry) ReleaseStore(store *catalog.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, e := range r.entries {
		if k.store == store {
			r.lru.Remove(e.elem)
			delete(r.entries, k)
		}
	}
}
