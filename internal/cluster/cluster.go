// Package cluster implements the Clustering component of the runtime
// pipeline (§4): reconciled offers are grouped by key attribute — UPC if
// present, else Model Part Number — so that each cluster corresponds to
// exactly one product instance.
//
// Because Schema Reconciliation has already translated merchant names like
// "MPN" and "Mfr. Part #" into the catalog's key attribute names, clustering
// reduces to grouping by the key value.
package cluster

import (
	"strings"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

// Cluster is one group of offers believed to describe a single product.
type Cluster struct {
	// Key is the normalized key attribute value shared by the offers.
	Key string
	// KeyAttr is the catalog attribute the key came from (UPC or MPN).
	KeyAttr string
	// CategoryID is the catalog category of the offers.
	CategoryID string
	// Offers are the member offers (reconciled specs).
	Offers []offer.Offer
}

// Options configures clustering.
type Options struct {
	// KeyAttrs are the catalog attributes used as clustering keys, in
	// priority order. Defaults to [UPC, Model Part Number] per §4.
	KeyAttrs []string
}

// DefaultKeyAttrs returns keyAttrs, or the paper's §4 default key
// attribute priority (UPC, then Model Part Number) when it is empty.
func DefaultKeyAttrs(keyAttrs []string) []string {
	if len(keyAttrs) == 0 {
		return []string{catalog.AttrUPC, catalog.AttrMPN}
	}
	return keyAttrs
}

// OfferKeys returns the namespaced clustering keys of one reconciled
// offer: for each key attribute present with a non-empty normalized value,
// "attr \x00 value". Offers sharing any key belong to the same cluster; an
// offer with no keys cannot be clustered. Group and the streaming cluster
// memory derive keys through this one function so batch and continuous
// clustering agree exactly.
func OfferKeys(o offer.Offer, keyAttrs []string) []string {
	var keys []string
	for _, ka := range DefaultKeyAttrs(keyAttrs) {
		if v, ok := o.Spec.Get(ka); ok {
			if norm := normalizeKey(v); norm != "" {
				keys = append(keys, ka+"\x00"+norm)
			}
		}
	}
	return keys
}

// Assemble builds the Cluster for a member set already known to form one
// cluster (offers connected through shared keys): it computes the
// representative key, key attribute, and majority category exactly as
// Group does. The offers slice is retained, not copied.
func Assemble(offers []offer.Offer, keyAttrs []string) Cluster {
	keyAttrs = DefaultKeyAttrs(keyAttrs)
	key, keyAttr := clusterIdentity(offers, keyAttrs)
	return Cluster{
		Key:        key,
		KeyAttr:    keyAttr,
		CategoryID: majorityCategory(offers),
		Offers:     offers,
	}
}

// normalizeKey canonicalizes key values: trim, uppercase, drop spaces and
// dashes so "HDT 725050-VLA360" and "hdt725050vla360" cluster together.
func normalizeKey(v string) string {
	var b strings.Builder
	for _, r := range strings.ToUpper(strings.TrimSpace(v)) {
		switch r {
		case ' ', '-', '_', '.':
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Group clusters reconciled offers by key attributes. Offers sharing ANY
// key value (same attribute) end up in the same cluster — a union-find over
// keys, so that a product whose offers variously expose UPC, MPN, or both
// still forms a single cluster. Offers without any key attribute are
// returned in skipped. Clusters form on key values alone, and the cluster
// category is the majority vote of its members: key values like UPCs
// identify the product regardless of category, so this absorbs
// category-classifier errors on individual offers (the resilience §2
// claims).
func Group(offers []offer.Offer, opts Options) (clusters []Cluster, skipped []offer.Offer) {
	keyAttrs := DefaultKeyAttrs(opts.KeyAttrs)

	// Namespaced key: attr \x00 normalized value, so UPC and MPN values
	// never collide.
	uf := newUnionFind()
	offerKeys := make([][]string, len(offers))
	for i, o := range offers {
		keys := OfferKeys(o, keyAttrs)
		offerKeys[i] = keys
		for j := 1; j < len(keys); j++ {
			uf.union(keys[0], keys[j])
		}
	}

	byRoot := make(map[string]*Cluster)
	var order []string
	for i, o := range offers {
		if len(offerKeys[i]) == 0 {
			skipped = append(skipped, o)
			continue
		}
		root := uf.find(offerKeys[i][0])
		cl := byRoot[root]
		if cl == nil {
			cl = &Cluster{}
			byRoot[root] = cl
			order = append(order, root)
		}
		cl.Offers = append(cl.Offers, o)
	}

	clusters = make([]Cluster, len(order))
	for i, root := range order {
		clusters[i] = Assemble(byRoot[root].Offers, keyAttrs)
	}
	return clusters, skipped
}

// majorityCategory returns the most common CategoryID among offers, ties
// broken toward the lexicographically smallest for determinism.
func majorityCategory(offers []offer.Offer) string {
	counts := make(map[string]int)
	for _, o := range offers {
		counts[o.CategoryID]++
	}
	best, bestN := "", -1
	for cat, n := range counts {
		if n > bestN || (n == bestN && cat < best) {
			best, bestN = cat, n
		}
	}
	return best
}

// clusterIdentity picks the cluster's representative key: the
// lexicographically smallest normalized value of the highest-priority key
// attribute present in any member offer.
func clusterIdentity(offers []offer.Offer, keyAttrs []string) (key, keyAttr string) {
	for _, ka := range keyAttrs {
		best := ""
		for _, o := range offers {
			if v, ok := o.Spec.Get(ka); ok {
				if norm := normalizeKey(v); norm != "" && (best == "" || norm < best) {
					best = norm
				}
			}
		}
		if best != "" {
			return best, ka
		}
	}
	return "", ""
}

// unionFind is a string-keyed disjoint-set with path compression.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[string]string)}
}

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// Stats summarizes a clustering result.
type Stats struct {
	Clusters      int
	Offers        int
	Skipped       int
	LargestSize   int
	SingletonSize int // number of single-offer clusters
}

// Summarize computes statistics over a clustering result.
func Summarize(clusters []Cluster, skipped []offer.Offer) Stats {
	st := Stats{Clusters: len(clusters), Skipped: len(skipped)}
	for _, c := range clusters {
		st.Offers += len(c.Offers)
		if len(c.Offers) > st.LargestSize {
			st.LargestSize = len(c.Offers)
		}
		if len(c.Offers) == 1 {
			st.SingletonSize++
		}
	}
	return st
}
