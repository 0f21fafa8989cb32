// Package stream implements continuous-feed synthesis: a long-lived
// pipeline consuming offer waves from a channel (Run) on top of a
// cross-batch cluster memory (Memory) that keeps clusters open between
// waves, so a product whose offers straddle waves joins its earlier
// cluster and re-fuses with the union of evidence instead of synthesizing
// a duplicate.
//
// The memory is an incremental version of cluster.Group: a persistent
// union-find over namespaced key values plus an open-cluster table. For
// any partitioning of an offer sequence into waves, feeding the waves
// through an unbounded Memory and reading Final() yields byte-identical
// clusters — same membership, same member order, same cluster order — as
// one cluster.Group call over the concatenated sequence. The equivalence
// holds because cluster partition is the transitive closure of key
// sharing (independent of union order), cluster order is the arrival
// order of each cluster's earliest member (merges keep the minimum), and
// member order is global arrival order (tracked per offer).
//
// Production feeds are unbounded, so the memory is too unless bounded:
// Options.MaxClusters caps open clusters with LRU eviction, and
// Options.MaxIdleWaves expires clusters no wave has touched recently.
// Eviction trades exactness for memory — a later offer sharing a key with
// an evicted cluster opens a fresh cluster and synthesizes a duplicate,
// exactly what a memory-less batch run would have done for every wave.
// Attaching a spill store (Options.Spill) removes that trade: LRU and
// idle victims move out-of-core instead of sealing and are revived when
// their keys reappear, so the bounded memory's output stays byte-identical
// to the unbounded one while RAM holds only the hot clusters.
//
// Memory is not safe for concurrent use; Run owns one and serializes
// waves through it.
package stream

import (
	"container/list"
	"sort"

	"prodsynth/internal/catalog"
	"prodsynth/internal/cluster"
	"prodsynth/internal/offer"
)

// MemoryOptions bounds a Memory. The zero value is unbounded.
type MemoryOptions struct {
	// KeyAttrs are the clustering key attributes in priority order
	// (default UPC, then Model Part Number — cluster.DefaultKeyAttrs).
	KeyAttrs []string
	// MaxClusters caps the number of open clusters; 0 means unbounded.
	// When a wave pushes the count past the cap, the least recently
	// touched clusters are evicted (after the wave's snapshots are
	// taken, so a wave larger than the cap still emits every cluster it
	// touched).
	MaxClusters int
	// MaxIdleWaves expires clusters by age: a cluster untouched for more
	// than MaxIdleWaves consecutive waves is evicted at the start of the
	// next wave. 0 means never. Measured in waves, not wall time, so
	// behaviour is deterministic for a given wave sequence.
	MaxIdleWaves int
	// Spill, when non-nil, turns the LRU and idle bounds from seals into
	// migrations: a cluster those bounds would evict is parked in the
	// spill store instead, and revived — same ordinal, same members, same
	// keys — when a later offer carries one of its keys. A bounded memory
	// with a spill store therefore produces byte-identical output to an
	// unbounded one (catalog-version invalidation still seals, spilled or
	// not). Spill errors fall back to the plain seal, so a broken disk
	// degrades to the unspilled behaviour rather than failing the stream.
	// The Memory does not close the store; its owner does.
	Spill cluster.SpillStore
}

// SealReason says why a cluster was sealed — why the cross-batch memory
// decided it can no longer grow.
type SealReason uint8

const (
	// SealClose: the stream's input closed; every cluster still open is
	// sealed with its final fused state in the closing result.
	SealClose SealReason = iota + 1
	// SealLRU: the cluster was the least recently touched when the open
	// set exceeded MaxClusters.
	SealLRU
	// SealIdle: no wave touched the cluster for more than MaxIdleWaves
	// consecutive waves.
	SealIdle
	// SealInvalidated: the catalog grew mid-stream in one of the cluster's
	// member categories, so the cluster's product may now exist in the
	// catalog; the cluster is dropped rather than extended. Unlike the
	// other reasons this does not promise the product is absent from the
	// catalog — only that this cluster will never re-fuse.
	SealInvalidated
)

// String names the reason for logs and experiment output.
func (r SealReason) String() string {
	switch r {
	case SealClose:
		return "close"
	case SealLRU:
		return "lru"
	case SealIdle:
		return "idle"
	case SealInvalidated:
		return "invalidated"
	default:
		return "unknown"
	}
}

// Evicted records one sealed cluster: the moment the memory decided it
// can no longer grow, with the membership snapshot taken at that moment.
// ID is the cluster's creation ordinal — unique for the lifetime of one
// Memory (ordinals are never reused; a merge keeps the minimum and
// retires the others, which therefore never seal), so each ID seals at
// most once across all reasons.
type Evicted struct {
	// ID is the cluster's creation ordinal (the order Final() and wave
	// snapshots emit clusters in).
	ID int
	// Wave is the 0-based wave during which the eviction happened; for
	// Close entries it is the total number of waves absorbed.
	Wave int
	// Reason says why the cluster sealed.
	Reason SealReason
	// Cluster is the membership snapshot at seal time.
	Cluster cluster.Cluster
}

// memberOffer is one cluster member with its global arrival index, the
// ordering that keeps merged member lists identical to batch clustering.
type memberOffer struct {
	seq int
	o   offer.Offer
}

// openCluster is one cluster held open across waves.
type openCluster struct {
	// ord is the creation order of the cluster's earliest member —
	// merges keep the minimum — and orders Final() output exactly like
	// cluster.Group orders its clusters.
	ord int
	// root is the union-find root key currently naming this cluster.
	root string
	// keys are all namespaced keys unioned into the cluster; eviction
	// deletes them from the union-find so the key space cannot grow
	// without bound.
	keys []string
	// members are the offers in global arrival order.
	members []memberOffer
	// lastWave is the most recent wave that added a member.
	lastWave int
	// catVersions maps every distinct member category to the catalog
	// version observed at the last touch — the staleness check
	// AddToCatalog trips mid-stream. Clusters can span categories (keys
	// are global), so growth in any member category invalidates.
	catVersions map[string]uint64
	elem        *list.Element
}

// Memory is the cross-batch cluster state. See the package comment.
type Memory struct {
	opts MemoryOptions

	// parent is the persistent union-find over namespaced keys. Every
	// key present belongs to exactly one open cluster, and every chain
	// stays inside one cluster's key set (unions only ever link keys of
	// clusters being merged), so evicting a cluster can delete its keys
	// without dangling references.
	parent map[string]string
	open   map[string]*openCluster // by current root key
	lru    list.List               // *openCluster; front = most recently touched

	wave    int // waves seen (Add calls)
	seq     int // offers admitted (global arrival counter)
	nextOrd int // next cluster creation ordinal

	evictionsLRU     int
	evictionsIdle    int
	evictionsVersion int

	spills         int
	revives        int
	spillFallbacks int
	spillErr       error

	// pending are the clusters evicted since the last DrainEvicted call,
	// snapshotted at eviction time — the seal events the stream surfaces.
	pending []Evicted
}

// NewMemory returns an empty cluster memory.
func NewMemory(opts MemoryOptions) *Memory {
	return &Memory{
		opts:   opts,
		parent: make(map[string]string),
		open:   make(map[string]*openCluster),
	}
}

// Len returns the number of open clusters.
func (m *Memory) Len() int { return len(m.open) }

// Waves returns the number of waves the memory has absorbed.
func (m *Memory) Waves() int { return m.wave }

// Evictions returns how many open clusters have been dropped, by cause:
// LRU (MaxClusters), idle expiry (MaxIdleWaves), and catalog-version
// invalidation. With a spill store attached, LRU and idle victims spill
// instead of sealing and are counted by Spilled, not here (except spill
// failures, which fall back to sealing and count in both places).
func (m *Memory) Evictions() (lru, idle, version int) {
	return m.evictionsLRU, m.evictionsIdle, m.evictionsVersion
}

// Spilled returns the spill traffic: clusters parked out-of-core,
// clusters revived back, and spill failures that fell back to a plain
// seal.
func (m *Memory) Spilled() (spills, revives, fallbacks int) {
	return m.spills, m.revives, m.spillFallbacks
}

// SpillErr returns the first spill-store failure, if any; the memory
// kept running (falling back to seals) past it.
func (m *Memory) SpillErr() error { return m.spillErr }

// SpilledLen reports how many clusters currently sit in the spill store.
func (m *Memory) SpilledLen() int {
	if m.opts.Spill == nil {
		return 0
	}
	return m.opts.Spill.Len()
}

// rootOf walks the union-find without creating missing keys.
func (m *Memory) rootOf(k string) (string, bool) {
	p, ok := m.parent[k]
	if !ok {
		return "", false
	}
	for p != k {
		k = p
		p = m.parent[k]
	}
	return k, true
}

// find returns k's root, inserting k as a fresh singleton when absent,
// with path compression.
func (m *Memory) find(k string) string {
	p, ok := m.parent[k]
	if !ok {
		m.parent[k] = k
		return k
	}
	if p == k {
		return k
	}
	root := m.find(p)
	m.parent[k] = root
	return root
}

func (m *Memory) union(a, b string) {
	ra, rb := m.find(a), m.find(b)
	if ra != rb {
		m.parent[rb] = ra
	}
}

// evict drops one open cluster: its keys leave the union-find, its entry
// leaves the table and the LRU list, and a seal record with the cluster's
// final membership snapshot is queued for DrainEvicted.
func (m *Memory) evict(cl *openCluster, reason SealReason) {
	for _, k := range cl.keys {
		delete(m.parent, k)
	}
	delete(m.open, cl.root)
	m.lru.Remove(cl.elem)
	m.pending = append(m.pending, Evicted{
		ID:      cl.ord,
		Wave:    m.wave - 1, // m.wave is 1-based during Add; results are 0-based
		Reason:  reason,
		Cluster: m.snapshot(cl),
	})
}

// spillOut tries to park one open cluster in the spill store instead of
// sealing it. On success the cluster leaves the in-RAM structures exactly
// as evict would take it out, but no seal event is queued — the cluster
// is suspended, not finished. Returns false (and latches the error) when
// there is no spill store or the spill failed; the caller then seals.
func (m *Memory) spillOut(cl *openCluster) bool {
	if m.opts.Spill == nil {
		return false
	}
	sp := cluster.Spilled{
		Ord:         cl.ord,
		Keys:        cl.keys,
		Members:     make([]cluster.SpillMember, len(cl.members)),
		LastWave:    cl.lastWave,
		CatVersions: cl.catVersions,
	}
	for i, mo := range cl.members {
		sp.Members[i] = cluster.SpillMember{Seq: mo.seq, Offer: mo.o}
	}
	if err := m.opts.Spill.Spill(sp); err != nil {
		m.spillFallbacks++
		if m.spillErr == nil {
			m.spillErr = err
		}
		return false
	}
	for _, k := range cl.keys {
		delete(m.parent, k)
	}
	delete(m.open, cl.root)
	m.lru.Remove(cl.elem)
	m.spills++
	return true
}

// reviveFor revives any spilled clusters reachable from the given offer
// keys, so the offer joins its suspended cluster instead of opening a
// duplicate. Keys already in the union-find belong to open clusters and
// are skipped; one offer can revive two distinct spilled clusters (one
// per key), which the normal union path then merges.
func (m *Memory) reviveFor(store *catalog.Store, versions map[string]uint64, keys []string) {
	if m.opts.Spill == nil {
		return
	}
	for _, k := range keys {
		if _, open := m.parent[k]; open {
			continue
		}
		ref, ok := m.opts.Spill.Lookup(k)
		if !ok {
			continue
		}
		sp, err := m.opts.Spill.Revive(ref)
		if err != nil {
			if m.spillErr == nil {
				m.spillErr = err
			}
			continue
		}
		m.admitSpilled(store, versions, sp)
	}
}

// admitSpilled reinstates one spilled cluster as open — unless the
// catalog moved in one of its member categories while it was out-of-core,
// in which case it seals as invalidated, exactly as expire would have
// sealed it had it stayed in RAM.
func (m *Memory) admitSpilled(store *catalog.Store, versions map[string]uint64, sp cluster.Spilled) {
	if store != nil {
		for cat, seen := range sp.CatVersions {
			if versionOf(store, versions, cat) != seen {
				m.evictionsVersion++
				m.pending = append(m.pending, Evicted{
					ID:      sp.Ord,
					Wave:    m.wave - 1,
					Reason:  SealInvalidated,
					Cluster: spilledSnapshot(sp, m.opts.KeyAttrs),
				})
				return
			}
		}
	}
	root := sp.Keys[0]
	cl := &openCluster{
		ord:         sp.Ord,
		root:        root,
		keys:        sp.Keys,
		members:     make([]memberOffer, len(sp.Members)),
		lastWave:    m.wave,
		catVersions: sp.CatVersions,
	}
	for i, sm := range sp.Members {
		cl.members[i] = memberOffer{seq: sm.Seq, o: sm.Offer}
	}
	for _, k := range sp.Keys {
		m.parent[k] = root
	}
	cl.elem = m.lru.PushFront(cl)
	m.open[root] = cl
	m.revives++
}

// spilledAll lists the spill store's contents for the merge paths
// (Final, CloseAll) without removing anything.
func (m *Memory) spilledAll() []cluster.Spilled {
	if m.opts.Spill == nil {
		return nil
	}
	all, err := m.opts.Spill.All()
	if err != nil {
		if m.spillErr == nil {
			m.spillErr = err
		}
		return nil
	}
	return all
}

// spilledSnapshot materializes a spilled cluster the way snapshot
// materializes an open one.
func spilledSnapshot(sp cluster.Spilled, keyAttrs []string) cluster.Cluster {
	members := make([]offer.Offer, len(sp.Members))
	for i, sm := range sp.Members {
		members[i] = sm.Offer
	}
	return cluster.Assemble(members, keyAttrs)
}

// DrainEvicted returns the seal records queued since the last call and
// clears the queue. The stream pipeline drains after every Add, so each
// wave's result carries exactly the clusters that wave sealed.
func (m *Memory) DrainEvicted() []Evicted {
	out := m.pending
	m.pending = nil
	return out
}

// CloseAll returns a seal record for every cluster still open — in RAM
// or spilled — in creation order, the merged view of the whole stream:
// the close-path counterpart of DrainEvicted, used for the stream's final
// result. With unbounded options, or bounded options plus a spill store,
// the clusters are exactly the cluster.Group output over every offer ever
// Added (minus clusters lost to catalog-version invalidation). It does
// not mutate the memory or the spill store.
func (m *Memory) CloseAll() []Evicted {
	type entry struct {
		ord int
		c   cluster.Cluster
	}
	entries := make([]entry, 0, len(m.open))
	for _, cl := range m.open {
		entries = append(entries, entry{cl.ord, m.snapshot(cl)})
	}
	for _, sp := range m.spilledAll() {
		entries = append(entries, entry{sp.Ord, spilledSnapshot(sp, m.opts.KeyAttrs)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ord < entries[j].ord })
	out := make([]Evicted, len(entries))
	for i, e := range entries {
		out[i] = Evicted{ID: e.ord, Wave: m.wave, Reason: SealClose, Cluster: e.c}
	}
	return out
}

// expire applies the wave-start evictions: idle expiry and, when store is
// non-nil, catalog-version invalidation. A cluster whose member-category
// version moved since its last touch is stale: AddToCatalog committed
// products into that category mid-stream, so the cluster's product may
// now exist in the catalog and its next same-key offer will be matched
// against the grown catalog (and typically excluded) rather than re-fused
// here. versions memoizes CategoryVersion reads — one store lock per
// distinct category per wave, however many clusters share it.
func (m *Memory) expire(store *catalog.Store, versions map[string]uint64) {
	if m.opts.MaxIdleWaves > 0 {
		// The LRU is ordered by last touch, so lastWave is nonincreasing
		// front to back: the scan from the back stops at the first
		// non-idle cluster.
		var idle []*openCluster
		for e := m.lru.Back(); e != nil; e = e.Prev() {
			cl := e.Value.(*openCluster)
			if m.wave-cl.lastWave <= m.opts.MaxIdleWaves {
				break
			}
			idle = append(idle, cl)
		}
		// Evict oldest-touch first, breaking ties on creation ordinal:
		// clusters last touched in the same wave expire in insertion
		// order, not in whatever order that wave happened to touch them.
		sort.Slice(idle, func(i, j int) bool {
			if idle[i].lastWave != idle[j].lastWave {
				return idle[i].lastWave < idle[j].lastWave
			}
			return idle[i].ord < idle[j].ord
		})
		for _, cl := range idle {
			if m.spillOut(cl) {
				continue
			}
			m.evictionsIdle++
			m.evict(cl, SealIdle)
		}
	}
	if store == nil {
		return
	}
	var stale []*openCluster
	for e := m.lru.Back(); e != nil; e = e.Prev() {
		cl := e.Value.(*openCluster)
		for cat, seen := range cl.catVersions {
			if versionOf(store, versions, cat) != seen {
				stale = append(stale, cl)
				break
			}
		}
	}
	for _, cl := range stale {
		m.evictionsVersion++
		m.evict(cl, SealInvalidated)
	}
}

// versionOf reads one category's version through the per-wave memo.
func versionOf(store *catalog.Store, memo map[string]uint64, cat string) uint64 {
	if v, ok := memo[cat]; ok {
		return v
	}
	v := store.CategoryVersion(cat)
	memo[cat] = v
	return v
}

// Add absorbs one wave of reconciled offers and returns a snapshot of
// every cluster the wave created or extended, ordered by cluster creation
// (the order cluster.Group would emit them in), plus the offers that
// carried no clustering key. Snapshots are self-contained copies: later
// waves do not mutate them. store, when non-nil, supplies the category
// version counters used to invalidate clusters after mid-stream catalog
// growth; pass nil to disable invalidation.
func (m *Memory) Add(store *catalog.Store, offers []offer.Offer) (touched []cluster.Cluster, skipped []offer.Offer) {
	m.wave++
	// Per-wave memo of CategoryVersion reads, shared by the staleness
	// check and the touch records below. A version bumped concurrently
	// mid-wave is recorded at its wave-start value, which at worst
	// evicts the cluster one wave later than a fresh read would — the
	// safe (conservative) direction.
	versions := make(map[string]uint64)
	m.expire(store, versions)

	touchedSet := make(map[*openCluster]bool)
	for _, o := range offers {
		keys := cluster.OfferKeys(o, m.opts.KeyAttrs)
		if len(keys) == 0 {
			skipped = append(skipped, o)
			continue
		}
		// A key resurfacing may belong to a spilled cluster: bring it
		// back before the lookups below, so the offer extends it.
		m.reviveFor(store, versions, keys)

		// Existing clusters this offer's keys reach, before any union.
		var joined []*openCluster
		seen := make(map[*openCluster]bool)
		for _, k := range keys {
			if root, ok := m.rootOf(k); ok {
				if cl := m.open[root]; cl != nil && !seen[cl] {
					seen[cl] = true
					joined = append(joined, cl)
				}
			}
		}
		fresh := newKeys(m.parent, keys)

		for j := 1; j < len(keys); j++ {
			m.union(keys[0], keys[j])
		}
		root := m.find(keys[0])

		var cl *openCluster
		switch len(joined) {
		case 0:
			cl = &openCluster{ord: m.nextOrd, root: root}
			m.nextOrd++
			cl.elem = m.lru.PushFront(cl)
			m.open[root] = cl
		default:
			cl = joined[0]
			for _, other := range joined[1:] {
				if other.ord < cl.ord {
					cl.ord = other.ord
				}
				cl.keys = append(cl.keys, other.keys...)
				cl.members = append(cl.members, other.members...)
				delete(m.open, other.root)
				m.lru.Remove(other.elem)
				delete(touchedSet, other)
			}
			if len(joined) > 1 {
				sort.Slice(cl.members, func(i, j int) bool {
					return cl.members[i].seq < cl.members[j].seq
				})
			}
			delete(m.open, cl.root)
			cl.root = root
			m.open[root] = cl
			m.lru.MoveToFront(cl.elem)
		}
		cl.keys = append(cl.keys, fresh...)
		cl.members = append(cl.members, memberOffer{seq: m.seq, o: o})
		m.seq++
		cl.lastWave = m.wave
		touchedSet[cl] = true
	}

	// Snapshot the touched clusters before LRU eviction, so a wave
	// larger than MaxClusters still reports everything it fused.
	touchedList := make([]*openCluster, 0, len(touchedSet))
	for cl := range touchedSet {
		touchedList = append(touchedList, cl)
	}
	sort.Slice(touchedList, func(i, j int) bool { return touchedList[i].ord < touchedList[j].ord })
	touched = make([]cluster.Cluster, len(touchedList))
	for i, cl := range touchedList {
		touched[i] = m.snapshot(cl)
		if store != nil {
			cv := make(map[string]uint64)
			for _, mo := range cl.members {
				if _, ok := cv[mo.o.CategoryID]; !ok {
					cv[mo.o.CategoryID] = versionOf(store, versions, mo.o.CategoryID)
				}
			}
			cl.catVersions = cv
		}
	}

	if m.opts.MaxClusters > 0 {
		for len(m.open) > m.opts.MaxClusters {
			cl := m.lruVictim()
			if m.spillOut(cl) {
				continue
			}
			m.evictionsLRU++
			m.evict(cl, SealLRU)
		}
	}
	return touched, skipped
}

// lruVictim picks the next LRU eviction: the least recently touched open
// cluster, breaking ties among clusters last touched in the same wave by
// creation ordinal (insertion order). The tie-break matters because
// within one wave the list records touch order, which depends on offer
// order inside the wave — an accident of batching, not an age signal —
// whereas the ordinal is the stable age the rest of the memory orders by.
// Equal-lastWave clusters are contiguous at the back of the list (every
// touch moves to front and stamps the current wave), so the scan is
// bounded by one wave's touches.
func (m *Memory) lruVictim() *openCluster {
	back := m.lru.Back()
	victim := back.Value.(*openCluster)
	for e := back.Prev(); e != nil; e = e.Prev() {
		cl := e.Value.(*openCluster)
		if cl.lastWave != victim.lastWave {
			break
		}
		if cl.ord < victim.ord {
			victim = cl
		}
	}
	return victim
}

// Final returns the clusters of CloseAll's seal records, in the same
// order.
func (m *Memory) Final() []cluster.Cluster {
	sealed := m.CloseAll()
	out := make([]cluster.Cluster, len(sealed))
	for i, e := range sealed {
		out[i] = e.Cluster
	}
	return out
}

// snapshot materializes one open cluster as a self-contained
// cluster.Cluster with identity fields computed the way cluster.Group
// computes them.
func (m *Memory) snapshot(cl *openCluster) cluster.Cluster {
	members := make([]offer.Offer, len(cl.members))
	for i, mo := range cl.members {
		members[i] = mo.o
	}
	return cluster.Assemble(members, m.opts.KeyAttrs)
}

// newKeys returns the keys not yet present in the union-find, preserving
// order. Called before the keys are unioned in.
func newKeys(parent map[string]string, keys []string) []string {
	var fresh []string
	for _, k := range keys {
		if _, ok := parent[k]; !ok {
			fresh = append(fresh, k)
		}
	}
	return fresh
}
