package serve

import (
	"slices"
	"strings"

	"prodsynth"
)

// The wire types: the JSON shapes of the daemon's request and response
// bodies. Specs are ordered lists of {name, value} pairs — not maps — so
// a round trip through the wire preserves the pipeline's deterministic
// spec ordering, and responses built from the same Result encode to
// byte-identical JSON in any process.

// AttrJSON is one attribute-value pair.
type AttrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// OfferJSON is one merchant offer as it travels in requests.
type OfferJSON struct {
	ID         string     `json:"id"`
	Merchant   string     `json:"merchant"`
	CategoryID string     `json:"category_id,omitempty"`
	Title      string     `json:"title"`
	PriceCents int64      `json:"price_cents,omitempty"`
	URL        string     `json:"url,omitempty"`
	ImageURL   string     `json:"image_url,omitempty"`
	Spec       []AttrJSON `json:"spec,omitempty"`
}

// PageJSON is one landing page supplied with a request.
type PageJSON struct {
	URL  string `json:"url"`
	HTML string `json:"html"`
}

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	// Offers are the incoming offers to synthesize products from.
	Offers []OfferJSON `json:"offers"`
	// Pages are the offers' landing pages. A URL repeated with a
	// different body rejects the request (400): the map a fetcher is
	// built from must not silently keep the last duplicate.
	Pages []PageJSON `json:"pages,omitempty"`
	// TimeoutMillis optionally tightens the server's per-request timeout
	// for this request; it can never extend past the server's cap.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// StreamRequest is the body of POST /v1/synthesize/stream: the offers are
// pre-partitioned into waves, each processed in order with cross-wave
// cluster memory; the response is NDJSON, one StreamEventJSON per line.
type StreamRequest struct {
	Waves         [][]OfferJSON `json:"waves"`
	Pages         []PageJSON    `json:"pages,omitempty"`
	TimeoutMillis int64         `json:"timeout_ms,omitempty"`
	// MaxOpenClusters / MaxIdleWaves / DisableClusterMemory mirror
	// prodsynth.StreamOptions.
	MaxOpenClusters      int  `json:"max_open_clusters,omitempty"`
	MaxIdleWaves         int  `json:"max_idle_waves,omitempty"`
	DisableClusterMemory bool `json:"disable_cluster_memory,omitempty"`
}

// ProductJSON is one synthesized product.
type ProductJSON struct {
	CategoryID string     `json:"category_id"`
	Key        string     `json:"key"`
	KeyAttr    string     `json:"key_attr"`
	Spec       []AttrJSON `json:"spec"`
	OfferIDs   []string   `json:"offer_ids"`
}

// FetchReportJSON is the run's fetch accounting.
type FetchReportJSON struct {
	Attempted       int      `json:"attempted"`
	Attempts        int      `json:"attempts"`
	Retried         int      `json:"retried"`
	Recovered       int      `json:"recovered"`
	GaveUp          int      `json:"gave_up"`
	BreakerRejected int      `json:"breaker_rejected"`
	FeedOnly        []string `json:"feed_only,omitempty"`
}

// SynthesizeResponse is the body of a successful POST /v1/synthesize.
// Elapsed time is deliberately absent: the response is a pure function of
// the request and the model generation, so two identical requests against
// the same generation yield byte-identical bodies (latency lives in
// /metrics instead).
type SynthesizeResponse struct {
	Products         []ProductJSON   `json:"products"`
	Offers           int             `json:"offers"`
	Clusters         int             `json:"clusters"`
	PairsMapped      int             `json:"pairs_mapped"`
	PairsDropped     int             `json:"pairs_dropped"`
	OffersWithoutKey int             `json:"offers_without_key"`
	ExcludedMatched  int             `json:"excluded_matched"`
	ModelGeneration  uint64          `json:"model_generation"`
	Fetch            FetchReportJSON `json:"fetch"`
}

// SealedJSON is one ClusterSealed event on a stream line.
type SealedJSON struct {
	ClusterID int         `json:"cluster_id"`
	Wave      int         `json:"wave"`
	Reason    string      `json:"reason"`
	Product   ProductJSON `json:"product"`
}

// StreamEventJSON is one NDJSON line of POST /v1/synthesize/stream:
// type "wave" for each input wave (in order), then exactly one type
// "final" carrying the merged stream view. A failed wave reports its
// error in Error with the counters zeroed; the stream continues. A stream
// cut off before its final line ends with one type "error" line instead.
type StreamEventJSON struct {
	Type             string          `json:"type"`
	Wave             int             `json:"wave"`
	Products         []ProductJSON   `json:"products,omitempty"`
	Sealed           []SealedJSON    `json:"sealed,omitempty"`
	OpenClusters     int             `json:"open_clusters,omitempty"`
	Offers           int             `json:"offers"`
	Clusters         int             `json:"clusters"`
	PairsMapped      int             `json:"pairs_mapped"`
	PairsDropped     int             `json:"pairs_dropped"`
	OffersWithoutKey int             `json:"offers_without_key"`
	ExcludedMatched  int             `json:"excluded_matched"`
	ModelGeneration  uint64          `json:"model_generation"`
	Fetch            FetchReportJSON `json:"fetch"`
	Error            string          `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WireSpec converts a spec to its wire form.
func WireSpec(spec prodsynth.Spec) []AttrJSON {
	if spec == nil {
		return nil
	}
	out := make([]AttrJSON, len(spec))
	for i, av := range spec {
		out[i] = AttrJSON{Name: av.Name, Value: av.Value}
	}
	return out
}

func specFromWire(attrs []AttrJSON) prodsynth.Spec {
	if attrs == nil {
		return nil
	}
	out := make(prodsynth.Spec, len(attrs))
	for i, a := range attrs {
		out[i] = prodsynth.AttributeValue{Name: a.Name, Value: a.Value}
	}
	return out
}

// WireOffers converts offers to their wire form — the shape a client (or
// a test, or cmd/synthd -emit-request) posts.
func WireOffers(offers []prodsynth.Offer) []OfferJSON {
	out := make([]OfferJSON, len(offers))
	for i, o := range offers {
		out[i] = OfferJSON{
			ID: o.ID, Merchant: o.Merchant, CategoryID: o.CategoryID,
			Title: o.Title, PriceCents: o.PriceCents, URL: o.URL,
			ImageURL: o.ImageURL, Spec: WireSpec(o.Spec),
		}
	}
	return out
}

// OffersFromWire converts request offers to pipeline offers.
func OffersFromWire(offers []OfferJSON) []prodsynth.Offer {
	out := make([]prodsynth.Offer, len(offers))
	for i, o := range offers {
		out[i] = prodsynth.Offer{
			ID: o.ID, Merchant: o.Merchant, CategoryID: o.CategoryID,
			Title: o.Title, PriceCents: o.PriceCents, URL: o.URL,
			ImageURL: o.ImageURL, Spec: specFromWire(o.Spec),
		}
	}
	return out
}

// WirePages converts a URL→HTML page map to a wire page list in sorted
// URL order (deterministic requests for identical maps).
func WirePages(pages map[string]string) []PageJSON {
	out := make([]PageJSON, 0, len(pages))
	for url, html := range pages {
		out = append(out, PageJSON{URL: url, HTML: html})
	}
	// The URLs are map keys, so no two compare equal.
	slices.SortFunc(out, func(a, b PageJSON) int { return strings.Compare(a.URL, b.URL) })
	return out
}

// fetcherFromWire builds the request's page fetcher, rejecting duplicate
// URLs with conflicting bodies (the serve half of the MapFetcher
// duplicate fix).
func fetcherFromWire(pages []PageJSON) (prodsynth.MapFetcher, error) {
	docs := make([]prodsynth.PageDoc, len(pages))
	for i, p := range pages {
		docs[i] = prodsynth.PageDoc{URL: p.URL, HTML: p.HTML}
	}
	return prodsynth.NewMapFetcher(docs)
}

// WireProducts converts synthesized products to their wire form.
func WireProducts(products []prodsynth.Synthesized) []ProductJSON {
	out := make([]ProductJSON, len(products))
	for i, p := range products {
		out[i] = ProductJSON{
			CategoryID: p.CategoryID, Key: p.Key, KeyAttr: p.KeyAttr,
			Spec: WireSpec(p.Spec), OfferIDs: p.OfferIDs,
		}
	}
	return out
}

func wireFetchReport(r prodsynth.FetchReport) FetchReportJSON {
	return FetchReportJSON{
		Attempted: r.Attempted, Attempts: r.Attempts, Retried: r.Retried,
		Recovered: r.Recovered, GaveUp: r.GaveUp,
		BreakerRejected: r.BreakerRejected, FeedOnly: r.FeedOnly,
	}
}

// ResponseFromResult converts a synthesis Result to the wire response —
// exported so tests (and clients embedding the daemon) can reproduce a
// response byte-for-byte from a direct SynthesizeContext call.
func ResponseFromResult(r *prodsynth.Result) SynthesizeResponse {
	return SynthesizeResponse{
		Products:         WireProducts(r.Products),
		Offers:           r.Offers,
		Clusters:         r.Clusters,
		PairsMapped:      r.PairsMapped,
		PairsDropped:     r.PairsDropped,
		OffersWithoutKey: r.OffersWithoutKey,
		ExcludedMatched:  r.ExcludedMatched,
		ModelGeneration:  r.ModelGeneration,
		Fetch:            wireFetchReport(r.Fetch),
	}
}

// EventFromStreamResult converts one StreamResult emission to its NDJSON
// line value — exported for the same byte-identity reason as
// ResponseFromResult.
func EventFromStreamResult(r prodsynth.StreamResult) StreamEventJSON {
	ev := StreamEventJSON{
		Type:             "wave",
		Wave:             r.Wave,
		Products:         WireProducts(r.Products),
		Sealed:           wireSealed(r.Sealed),
		OpenClusters:     r.OpenClusters,
		Offers:           r.Offers,
		Clusters:         r.Clusters,
		PairsMapped:      r.PairsMapped,
		PairsDropped:     r.PairsDropped,
		OffersWithoutKey: r.OffersWithoutKey,
		ExcludedMatched:  r.ExcludedMatched,
		ModelGeneration:  r.ModelGeneration,
		Fetch:            wireFetchReport(r.Fetch),
	}
	if r.Final {
		ev.Type = "final"
	}
	if r.Err != nil {
		ev.Error = r.Err.Error()
	}
	return ev
}

func wireSealed(sealed []prodsynth.ClusterSealed) []SealedJSON {
	if sealed == nil {
		return nil
	}
	out := make([]SealedJSON, len(sealed))
	for i, s := range sealed {
		out[i] = SealedJSON{
			ClusterID: s.ClusterID,
			Wave:      s.Wave,
			Reason:    s.Reason.String(),
			Product:   wireProduct(s.Product),
		}
	}
	return out
}

func wireProduct(p prodsynth.Synthesized) ProductJSON {
	return ProductJSON{
		CategoryID: p.CategoryID, Key: p.Key, KeyAttr: p.KeyAttr,
		Spec: WireSpec(p.Spec), OfferIDs: p.OfferIDs,
	}
}

// streamOptionsFromWire maps request knobs onto StreamOptions.
func streamOptionsFromWire(req *StreamRequest) prodsynth.StreamOptions {
	return prodsynth.StreamOptions{
		MaxOpenClusters:      req.MaxOpenClusters,
		MaxIdleWaves:         req.MaxIdleWaves,
		DisableClusterMemory: req.DisableClusterMemory,
	}
}
