package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"prodsynth/internal/catalog"
	"prodsynth/internal/offer"
)

func mkOffer(id, cat, mpn, upc string) offer.Offer {
	spec := catalog.Spec{}
	if mpn != "" {
		spec = append(spec, catalog.AttributeValue{Name: catalog.AttrMPN, Value: mpn})
	}
	if upc != "" {
		spec = append(spec, catalog.AttributeValue{Name: catalog.AttrUPC, Value: upc})
	}
	return offer.Offer{ID: id, CategoryID: cat, Spec: spec}
}

func TestGroupByMPN(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "HDT725", ""),
		mkOffer("o2", "hd", "hdt-725", ""), // same key after normalization
		mkOffer("o3", "hd", "ST3500", ""),
	}
	clusters, skipped := Group(offers, Options{})
	if len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	if len(clusters[0].Offers) != 2 || clusters[0].Key != "HDT725" {
		t.Errorf("cluster0 = %+v", clusters[0])
	}
	if clusters[0].KeyAttr != catalog.AttrMPN {
		t.Errorf("KeyAttr = %q", clusters[0].KeyAttr)
	}
}

func TestGroupUPCPriority(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "MPN-A", "000111"),
		mkOffer("o2", "hd", "MPN-B", "000111"), // same UPC, different MPN
	}
	clusters, _ := Group(offers, Options{})
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d; UPC should take priority", len(clusters))
	}
	if clusters[0].KeyAttr != catalog.AttrUPC {
		t.Errorf("KeyAttr = %q", clusters[0].KeyAttr)
	}
}

func TestGroupMergesAcrossKeyAttributes(t *testing.T) {
	// o1 carries both keys, o2 only the MPN, o3 only the UPC: all three
	// describe one product and must form one cluster.
	offers := []offer.Offer{
		mkOffer("o1", "hd", "MPN1", "UPC1"),
		mkOffer("o2", "hd", "MPN1", ""),
		mkOffer("o3", "hd", "", "UPC1"),
	}
	clusters, skipped := Group(offers, Options{})
	if len(clusters) != 1 || len(skipped) != 0 {
		t.Fatalf("clusters=%d skipped=%d", len(clusters), len(skipped))
	}
	if len(clusters[0].Offers) != 3 {
		t.Errorf("cluster size = %d", len(clusters[0].Offers))
	}
	if clusters[0].KeyAttr != catalog.AttrUPC || clusters[0].Key != "UPC1" {
		t.Errorf("identity = %q/%q", clusters[0].KeyAttr, clusters[0].Key)
	}
}

func TestGroupSkipsKeylessOffers(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "A1", ""),
		{ID: "o2", CategoryID: "hd", Spec: catalog.Spec{{Name: "Brand", Value: "X"}}},
		{ID: "o3", CategoryID: "hd"},
	}
	clusters, skipped := Group(offers, Options{})
	if len(clusters) != 1 || len(skipped) != 2 {
		t.Errorf("clusters=%d skipped=%d", len(clusters), len(skipped))
	}
}

func TestGroupMajorityCategoryAbsorbsClassifierErrors(t *testing.T) {
	// Three offers share a UPC; one was misclassified into "cam". By
	// default they merge and the majority category wins.
	offers := []offer.Offer{
		mkOffer("o1", "hd", "", "U1"),
		mkOffer("o2", "hd", "", "U1"),
		mkOffer("o3", "cam", "", "U1"),
	}
	clusters, _ := Group(offers, Options{})
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	if clusters[0].CategoryID != "hd" {
		t.Errorf("category = %q, want majority hd", clusters[0].CategoryID)
	}
}

func TestGroupMergesAcrossCategories(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "SAME", ""),
		mkOffer("o2", "cam", "SAME", ""),
	}
	merged, _ := Group(offers, Options{})
	if len(merged) != 1 {
		t.Errorf("default should merge on shared key: %d clusters", len(merged))
	}
}

func TestGroupCustomKeyAttrs(t *testing.T) {
	offers := []offer.Offer{
		{ID: "o1", CategoryID: "hd", Spec: catalog.Spec{{Name: "Serial", Value: "S1"}}},
		{ID: "o2", CategoryID: "hd", Spec: catalog.Spec{{Name: "Serial", Value: "S1"}}},
	}
	clusters, skipped := Group(offers, Options{KeyAttrs: []string{"Serial"}})
	if len(clusters) != 1 || len(skipped) != 0 {
		t.Errorf("clusters=%d skipped=%d", len(clusters), len(skipped))
	}
}

func TestNormalizeKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HDT 725050-VLA360", "HDT725050VLA360"},
		{"hdt725050vla360", "HDT725050VLA360"},
		{"  a_b.c  ", "ABC"},
		{"---", ""},
	}
	for _, c := range cases {
		if got := normalizeKey(c.in); got != c.want {
			t.Errorf("normalizeKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSummarizeAndSort(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "A", ""),
		mkOffer("o2", "hd", "A", ""),
		mkOffer("o3", "hd", "A", ""),
		mkOffer("o4", "hd", "B", ""),
		{ID: "o5", CategoryID: "hd"},
	}
	clusters, skipped := Group(offers, Options{})
	st := Summarize(clusters, skipped)
	if st.Clusters != 2 || st.Offers != 4 || st.Skipped != 1 ||
		st.LargestSize != 3 || st.SingletonSize != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupDeterministicOrder(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "Z", ""),
		mkOffer("o2", "hd", "A", ""),
		mkOffer("o3", "hd", "M", ""),
	}
	a, _ := Group(offers, Options{})
	b, _ := Group(offers, Options{})
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("cluster order not deterministic")
		}
	}
	// Insertion order preserved.
	if a[0].Key != "Z" || a[1].Key != "A" || a[2].Key != "M" {
		t.Errorf("order = %v", []string{a[0].Key, a[1].Key, a[2].Key})
	}
}

// TestGroupPartitionProperty checks the fundamental clustering invariants
// on random inputs: clusters partition the keyed offers (no loss, no
// duplication), offers sharing a key land together, and the result is
// independent of input order up to cluster identity.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 2
		offers := make([]offer.Offer, count)
		for i := range offers {
			var spec catalog.Spec
			if rng.Intn(4) > 0 { // 3/4 of offers carry an MPN
				spec = append(spec, catalog.AttributeValue{
					Name: catalog.AttrMPN, Value: fmt.Sprintf("K%d", rng.Intn(8)),
				})
			}
			if rng.Intn(2) == 0 { // half carry a UPC
				spec = append(spec, catalog.AttributeValue{
					Name: catalog.AttrUPC, Value: fmt.Sprintf("U%d", rng.Intn(8)),
				})
			}
			offers[i] = offer.Offer{ID: fmt.Sprintf("o%d", i), CategoryID: "c", Spec: spec}
		}
		clusters, skipped := Group(offers, Options{})

		// Partition: every offer appears exactly once.
		seen := make(map[string]int)
		for _, cl := range clusters {
			for _, o := range cl.Offers {
				seen[o.ID]++
			}
		}
		for _, o := range skipped {
			seen[o.ID]++
		}
		if len(seen) != count {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}

		// Cohesion: two offers with the same MPN value share a cluster.
		clusterOf := make(map[string]int)
		for ci, cl := range clusters {
			for _, o := range cl.Offers {
				clusterOf[o.ID] = ci
			}
		}
		byMPN := make(map[string]int)
		for _, o := range offers {
			v, ok := o.Spec.Get(catalog.AttrMPN)
			if !ok {
				continue
			}
			if prev, ok := byMPN[v]; ok {
				if clusterOf[o.ID] != prev {
					return false
				}
			} else {
				byMPN[v] = clusterOf[o.ID]
			}
		}

		// Order independence: shuffling input preserves the partition.
		shuffled := append([]offer.Offer(nil), offers...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		clusters2, skipped2 := Group(shuffled, Options{})
		if len(clusters2) != len(clusters) || len(skipped2) != len(skipped) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOfferKeys(t *testing.T) {
	o := mkOffer("o1", "hd", "hdt-725", "00 111")
	keys := OfferKeys(o, nil)
	want := []string{catalog.AttrUPC + "\x00" + "00111", catalog.AttrMPN + "\x00" + "HDT725"}
	if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("OfferKeys = %q, want %q", keys, want)
	}
	// Custom key attributes.
	keys = OfferKeys(o, []string{catalog.AttrUPC})
	if len(keys) != 1 || keys[0] != catalog.AttrUPC+"\x00"+"00111" {
		t.Errorf("UPC-only keys = %q", keys)
	}
	// No keys at all.
	if keys := OfferKeys(mkOffer("o2", "hd", "", ""), nil); len(keys) != 0 {
		t.Errorf("key-less offer produced %q", keys)
	}
}

// TestAssembleMatchesGroup checks that Assemble computes cluster identity
// exactly as Group does: assembling each Group cluster's member set must
// reproduce the cluster.
func TestAssembleMatchesGroup(t *testing.T) {
	offers := []offer.Offer{
		mkOffer("o1", "hd", "MPN-A", "000111"),
		mkOffer("o2", "tv", "MPN-B", "000111"),
		mkOffer("o3", "hd", "mpn a", ""),
		mkOffer("o4", "hd", "ZZZ", ""),
	}
	clusters, _ := Group(offers, Options{})
	for i, c := range clusters {
		re := Assemble(c.Offers, nil)
		if re.Key != c.Key || re.KeyAttr != c.KeyAttr || re.CategoryID != c.CategoryID {
			t.Errorf("cluster %d: Assemble = %s/%s=%s, Group = %s/%s=%s",
				i, re.CategoryID, re.KeyAttr, re.Key, c.CategoryID, c.KeyAttr, c.Key)
		}
	}
}
