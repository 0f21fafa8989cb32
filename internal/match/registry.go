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
// The entry map is split into shards picked by category hash, so
// concurrent category tasks contend on a shard lock rather than one
// global mutex, and each shard keeps an LRU over its entries: with a
// MaxEntries bound configured, cold categories are evicted and simply
// rebuild on their next touch. See RegistryOptions.
//
// All methods are safe for concurrent use.
type Registry struct {
	shards      []registryShard
	maxPerShard int // 0 = unbounded
	builds      atomic.Int64
	deltas      atomic.Int64
}

// RegistryOptions configures a Registry. The zero value applies defaults.
type RegistryOptions struct {
	// Shards is the number of lock shards the entry map is split into
	// (default 8). More shards cut lock contention at high category
	// counts; output is identical for every value.
	Shards int
	// MaxEntries bounds the number of cached category entries; 0 means
	// unbounded. The bound is distributed over the shards
	// (ceil(MaxEntries/Shards) each) and enforced per shard with LRU
	// eviction, so it is approximate in both directions: a skewed
	// category→shard distribution can evict before the global total
	// reaches MaxEntries, and the rounded-up per-shard capacities can
	// hold up to Shards-1 entries more than it. Size memory budgets
	// with that slack in mind. Evicted categories rebuild on next touch.
	MaxEntries int
}

const defaultRegistryShards = 8

type registryShard struct {
	mu      sync.Mutex
	entries map[registryKey]*registryEntry
	lru     list.List // front = most recently touched; values are registryKey
}

type registryKey struct {
	store    *catalog.Store
	category string
}

// registryEntry caches one category's matching state at one store version;
// the index builds lazily on first touch.
type registryEntry struct {
	version uint64        // store version observed when the entry was created
	elem    *list.Element // LRU position in the owning shard

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
// sharding and memory bounds.
func NewRegistryWithOptions(o RegistryOptions) *Registry {
	n := o.Shards
	if n <= 0 {
		n = defaultRegistryShards
	}
	r := &Registry{shards: make([]registryShard, n)}
	for i := range r.shards {
		r.shards[i].entries = make(map[registryKey]*registryEntry)
	}
	if o.MaxEntries > 0 {
		r.maxPerShard = (o.MaxEntries + n - 1) / n
	}
	return r
}

// shardFor picks the shard for a key by FNV-1a over the category name.
// The store pointer is left out: registries overwhelmingly serve one
// store, and hash quality across categories is what spreads the locks.
func (r *Registry) shardFor(k registryKey) *registryShard {
	if len(r.shards) == 1 {
		return &r.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(k.category); i++ {
		h ^= uint32(k.category[i])
		h *= 16777619
	}
	return &r.shards[h%uint32(len(r.shards))]
}

// entry returns the live cache entry for (store, category), replacing any
// entry built at an older store version. The comparison is strictly
// "older": a goroutine whose version read predates a concurrent AddProduct
// must not evict the newer entry another goroutine already installed, or
// the two would thrash rebuilding each other's work.
func (r *Registry) entry(store *catalog.Store, category string) *registryEntry {
	v := store.CategoryVersion(category)
	k := registryKey{store: store, category: category}
	sh := r.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e != nil && e.version >= v {
		sh.lru.MoveToFront(e.elem)
		return e
	}
	ne := &registryEntry{version: v}
	if e != nil {
		if e.idxDone.Load() {
			ne.prevIndex = e.index
			ne.prevVersion = e.idxVersion.Load()
		}
		sh.lru.Remove(e.elem)
	}
	ne.elem = sh.lru.PushFront(k)
	sh.entries[k] = ne
	if r.maxPerShard > 0 {
		for len(sh.entries) > r.maxPerShard {
			back := sh.lru.Back()
			sh.lru.Remove(back)
			delete(sh.entries, back.Value.(registryKey))
		}
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

// Entries reports the number of cached category entries across all
// shards — the quantity RegistryOptions.MaxEntries bounds.
func (r *Registry) Entries() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Invalidate drops the cached entry for one (store, category) pair.
// Version validation makes this unnecessary after Store.AddProduct; it
// exists for callers that mutate matching-relevant state the store cannot
// see. The next touch rebuilds cold.
func (r *Registry) Invalidate(store *catalog.Store, category string) {
	k := registryKey{store: store, category: category}
	sh := r.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[k]; e != nil {
		sh.lru.Remove(e.elem)
		delete(sh.entries, k)
	}
}

// ReleaseStore drops every entry of one store, releasing the memory (and
// the store reference) held for it. Call when a store goes out of use in a
// long-lived process.
func (r *Registry) ReleaseStore(store *catalog.Store) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.store == store {
				sh.lru.Remove(e.elem)
				delete(sh.entries, k)
			}
		}
		sh.mu.Unlock()
	}
}
