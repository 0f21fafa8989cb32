// Package catalog models the Product Search Engine catalog of paper §2:
// a product taxonomy whose categories each carry a schema (a set of
// attribute names), and product instances p = (C, {<A1,v1>,...,<An,vn>})
// whose attribute names belong to the schema of C.
//
// The Store is safe for concurrent readers and writers, and maintains the
// indexes the synthesis pipeline needs: products by category, and products
// by key attribute (UPC / Model Part Number) for offer matching and for
// deciding which offers describe products missing from the catalog.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Well-known key attribute names (catalog-side vocabulary). The clustering
// component (paper §4) extracts these to group offers into products.
const (
	AttrUPC = "UPC"
	AttrMPN = "Model Part Number"
)

// AttributeKind describes the value domain of a schema attribute; the
// synthetic generator uses it to draw realistic values, and value fusion
// uses it to decide tokenization granularity.
type AttributeKind int

const (
	// KindCategorical draws from a small closed vocabulary (e.g. Brand).
	KindCategorical AttributeKind = iota
	// KindNumeric is a number, possibly with a unit suffix (e.g. Capacity).
	KindNumeric
	// KindText is short free text of several tokens (e.g. Description).
	KindText
	// KindIdentifier is a near-unique code (e.g. UPC, MPN).
	KindIdentifier
)

func (k AttributeKind) String() string {
	switch k {
	case KindCategorical:
		return "categorical"
	case KindNumeric:
		return "numeric"
	case KindText:
		return "text"
	case KindIdentifier:
		return "identifier"
	default:
		return fmt.Sprintf("AttributeKind(%d)", int(k))
	}
}

// Attribute is one column of a category schema.
type Attribute struct {
	Name string
	Kind AttributeKind
	// Unit is an optional unit suffix merchants may or may not attach
	// ("GB", "rpm"). Empty for unitless attributes.
	Unit string
}

// Schema is the ordered attribute list of one category.
type Schema struct {
	Attributes []Attribute

	// byName maps attribute name to its position in Attributes — the
	// acceleration behind Has and Attribute, which are hot in product
	// validation, reconciliation, and fusion. It is built lazily, when a
	// schema first enters a Store (AddCategory), and then shared
	// read-only by every copy of the schema; schemas constructed as plain
	// literals fall back to the linear scan until stored.
	byName map[string]int
}

// buildNameIndex populates byName. The first occurrence wins on duplicate
// names, matching the linear scan's behavior.
func (s *Schema) buildNameIndex() {
	if s.byName != nil || len(s.Attributes) == 0 {
		return
	}
	m := make(map[string]int, len(s.Attributes))
	for i, a := range s.Attributes {
		if _, dup := m[a.Name]; !dup {
			m[a.Name] = i
		}
	}
	s.byName = m
}

// Has reports whether the schema contains an attribute with the given name.
func (s Schema) Has(name string) bool {
	if s.byName != nil {
		_, ok := s.byName[name]
		return ok
	}
	for _, a := range s.Attributes {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Attribute returns the attribute with the given name.
func (s Schema) Attribute(name string) (Attribute, bool) {
	if s.byName != nil {
		if i, ok := s.byName[name]; ok {
			return s.Attributes[i], true
		}
		return Attribute{}, false
	}
	for _, a := range s.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Attributes))
	for i, a := range s.Attributes {
		out[i] = a.Name
	}
	return out
}

// Category is a node in the product taxonomy. Only leaf categories carry
// products; TopLevel is the root ancestor used for Table 3 style rollups.
type Category struct {
	ID       string
	Name     string
	TopLevel string
	Schema   Schema
}

// AttributeValue is one <A, v> pair of a product or offer specification.
type AttributeValue struct {
	Name  string
	Value string
}

// Spec is an attribute-value specification. Order is not significant but is
// preserved for deterministic output.
type Spec []AttributeValue

// Get returns the value for the named attribute.
func (s Spec) Get(name string) (string, bool) {
	for _, av := range s {
		if av.Name == name {
			return av.Value, true
		}
	}
	return "", false
}

// Set replaces the value for name, or appends it if absent.
func (s Spec) Set(name, value string) Spec {
	for i, av := range s {
		if av.Name == name {
			s[i].Value = value
			return s
		}
	}
	return append(s, AttributeValue{Name: name, Value: value})
}

// Names returns the attribute names in spec order.
func (s Spec) Names() []string {
	out := make([]string, len(s))
	for i, av := range s {
		out[i] = av.Name
	}
	return out
}

// Clone returns a deep copy.
func (s Spec) Clone() Spec {
	out := make(Spec, len(s))
	copy(out, s)
	return out
}

// Sorted returns a copy sorted by attribute name, for deterministic output.
func (s Spec) Sorted() Spec {
	out := s.Clone()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the spec as "A=v; B=w" for logs and error messages.
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, av := range s {
		parts[i] = av.Name + "=" + av.Value
	}
	return strings.Join(parts, "; ")
}

// Product is a catalog product instance.
type Product struct {
	ID         string
	CategoryID string
	Spec       Spec
}

// Key returns the product's clustering key: UPC if present, else MPN.
func (p *Product) Key() (string, bool) {
	if v, ok := p.Spec.Get(AttrUPC); ok && v != "" {
		return v, true
	}
	if v, ok := p.Spec.Get(AttrMPN); ok && v != "" {
		return v, true
	}
	return "", false
}

// Errors returned by Store operations.
var (
	ErrUnknownCategory   = errors.New("catalog: unknown category")
	ErrDuplicateCategory = errors.New("catalog: duplicate category")
	ErrDuplicateProduct  = errors.New("catalog: duplicate product")
	ErrSchemaViolation   = errors.New("catalog: attribute not in category schema")
)

// Store is the catalog: categories plus products, with indexes by
// category and by key attribute. All methods are safe for concurrent use:
// one RWMutex guards the whole store, so readers share it and a writer
// holds it alone (see backend.go).
//
// Every mutation of a category's product set bumps that category's version
// counter (see CategoryVersion). External caches built over a category's
// products — such as the matcher's shared title-index registry — record the
// version they were built at and rebuild when it moves, so stale entries are
// evicted without the Store knowing who caches what.
type Store struct {
	mu         sync.RWMutex
	categories map[string]*Category
	products   map[string]*Product // product ID -> product: the ID index
	byCategory map[string][]string // category ID -> product IDs (insertion order)
	versions   map[string]uint64   // category ID -> mutation counter
	byKey      map[string]string   // key value -> product ID (first insertion wins)
	autoSeq    uint64              // next candidate suffix for AddProductAutoID
	obs        Observer
}

// NewStore returns an empty catalog store.
func NewStore() *Store {
	return &Store{
		categories: make(map[string]*Category),
		products:   make(map[string]*Product),
		byCategory: make(map[string][]string),
		versions:   make(map[string]uint64),
		byKey:      make(map[string]string),
	}
}

// AddOutcome reports non-fatal conditions observed while inserting a
// product — conditions that do not reject the product but that the caller
// may want to surface.
type AddOutcome struct {
	// KeyShadowedBy is the ID of the product that already owns the new
	// product's UPC/MPN key: the new product is stored and reachable by
	// ID and category, but ProductByKey resolves the key to the earlier
	// product (first insertion wins, matching Schema.buildNameIndex).
	// Empty when the key was free or the product has no key.
	KeyShadowedBy string
}

// AddProduct inserts a product. The product's category must exist and every
// spec attribute must belong to the category schema; this enforces the §2
// invariant that product specs conform to their category. Use
// AddProductOutcome to also learn whether the product's key was shadowed
// by an earlier product.
func (st *Store) AddProduct(p Product) error {
	_, err := st.AddProductOutcome(p)
	return err
}
