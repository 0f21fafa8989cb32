// Package synth generates a complete synthetic marketplace: a product
// taxonomy and catalog, a universe of products (some deliberately missing
// from the catalog), merchants with private attribute vocabularies and
// formatting quirks, offer feeds, and HTML landing pages — plus exact ground
// truth for every quantity the paper measures.
//
// This is the substitute for the proprietary Bing Shopping corpus (see the
// README's "Performance" section). The generator is fully deterministic
// given Config.Seed.
package synth

// Config controls the size and noise characteristics of the generated
// marketplace. Zero values are replaced by the defaults documented on each
// field; DefaultConfig returns the configuration used by unit tests, and
// ExperimentConfig the larger one used by the benchmark harness.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64

	// CategoriesPerDomain caps leaf categories per top-level domain
	// (default 4; the vocabulary provides 8-12 per domain).
	CategoriesPerDomain int
	// ProductsPerCategory is the size of the product universe per leaf
	// category (default 40).
	ProductsPerCategory int
	// Merchants is the number of merchants (default 30). Each merchant
	// operates in one or two domains.
	Merchants int

	// FracMissing is the fraction of universe products withheld from the
	// catalog (default 0.5). Offers for withheld products form the
	// incoming stream the runtime pipeline synthesizes from; the rest are
	// historical offers used for offline learning.
	FracMissing float64

	// HeavyOfferFrac is the fraction of products that attract a large
	// (≥10) number of offers (default 0.15); the rest get 1-6. Drives the
	// Table 4 recall split.
	HeavyOfferFrac float64

	// PIdentity is the probability that a merchant adopts the catalog's
	// own name for an attribute (default 0.35). Name identities are what
	// the automatic training-set construction of §3.2 feeds on.
	PIdentity float64

	// PAttrPresent is the probability that a product attribute appears on
	// a given offer's landing page (default 0.85).
	PAttrPresent float64

	// PFeedUPC is the probability that an offer's feed row carries the
	// product UPC (default 0.7); these enable identifier-based historical
	// matches.
	PFeedUPC float64

	// PBulletPage is the probability a landing page renders its specs as
	// a bullet list instead of a table (default 0.1). The paper's table
	// extractor misses these, trading recall for simplicity (§4).
	PBulletPage float64

	// NoiseRowsMax is the maximum number of marketing noise rows
	// interleaved into each spec table (default 3).
	NoiseRowsMax int

	// PMissingCategory is the probability an offer's feed row omits the
	// category, exercising the title classifier (default 0.05).
	PMissingCategory float64

	// PValueError is the probability that a merchant page lists a wrong
	// value for an attribute — stale or mistyped data (default 0.05).
	// Identifier attributes (UPC, MPN) are never corrupted. Value errors
	// are what keep strict product precision below 1 for attribute-rich
	// categories (the paper's Table 3 effect) and what separate the
	// classifier from single-feature scorers (Figure 6): per-(merchant,
	// category) distributions are small and noisy, while the category-
	// and merchant-level aggregations average the noise out.
	PValueError float64

	// FracOrphanBrands is the fraction of each domain's brands carried by
	// NO merchant (default 0.3). Products of orphan brands enter the
	// catalog as "cold" products without offers — the paper's §3.1
	// motivating case (the catalog lists 10,000-rpm drives that no
	// merchant sells). Because brand correlates with value tiers, cold
	// products skew catalog-wide value distributions away from offer
	// distributions, which is precisely what the historical-match
	// restriction (Figure 7) corrects.
	FracOrphanBrands float64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CategoriesPerDomain <= 0 {
		c.CategoriesPerDomain = 4
	}
	if c.ProductsPerCategory <= 0 {
		c.ProductsPerCategory = 40
	}
	if c.Merchants <= 0 {
		c.Merchants = 30
	}
	if c.FracMissing <= 0 {
		c.FracMissing = 0.5
	}
	if c.HeavyOfferFrac <= 0 {
		c.HeavyOfferFrac = 0.15
	}
	if c.PIdentity <= 0 {
		c.PIdentity = 0.35
	}
	if c.PAttrPresent <= 0 {
		c.PAttrPresent = 0.85
	}
	if c.PFeedUPC <= 0 {
		c.PFeedUPC = 0.7
	}
	if c.PBulletPage < 0 {
		c.PBulletPage = 0
	} else if c.PBulletPage == 0 {
		c.PBulletPage = 0.1
	}
	if c.NoiseRowsMax <= 0 {
		c.NoiseRowsMax = 3
	}
	if c.PMissingCategory < 0 {
		c.PMissingCategory = 0
	} else if c.PMissingCategory == 0 {
		c.PMissingCategory = 0.05
	}
	if c.PValueError < 0 {
		c.PValueError = 0
	} else if c.PValueError == 0 {
		c.PValueError = 0.05
	}
	if c.FracOrphanBrands < 0 {
		c.FracOrphanBrands = 0
	} else if c.FracOrphanBrands == 0 {
		c.FracOrphanBrands = 0.3
	}
	return c
}

// DefaultConfig is the small marketplace used by unit and integration tests:
// ~16 categories, ~2.5k products, a few thousand offers.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

// ExperimentConfig is the laptop-scale marketplace used by the benchmark
// harness to regenerate the paper's tables and figures: every category in
// the vocabulary, a large product universe, tens of thousands of offers,
// and — like the paper's corpus — many merchants with few offers each, so
// that per-(merchant, category) evidence is sparse and the multi-grouping
// classifier has room to beat single-grouping features.
func ExperimentConfig() Config {
	return Config{
		CategoriesPerDomain: 12, // capped by vocabulary size per domain
		ProductsPerCategory: 120,
		Merchants:           260,
		PValueError:         0.08,
	}.withDefaults()
}
