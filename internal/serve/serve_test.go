package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prodsynth"
	"prodsynth/internal/serve"
)

// learnedSystem builds a marketplace and a learned System over it — the
// same Seed-21 dataset the root API tests use, so the daemon serves a
// pipeline whose direct outputs are pinned elsewhere.
func learnedSystem(t *testing.T) (*prodsynth.Marketplace, *prodsynth.System) {
	t.Helper()
	ds := prodsynth.GenerateMarketplace(prodsynth.MarketplaceConfig{
		Seed:                21,
		CategoriesPerDomain: 2,
		ProductsPerCategory: 20,
		Merchants:           20,
	})
	model, err := prodsynth.Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, prodsynth.MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	return ds, prodsynth.NewSystem(ds.Catalog, model)
}

// encodeJSON marshals exactly the way the handlers do (json.Encoder, so a
// trailing newline), for byte-identity comparisons.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthesizeRequest builds the /v1/synthesize body for a marketplace's
// incoming offers.
func synthesizeRequest(ds *prodsynth.Marketplace) serve.SynthesizeRequest {
	return serve.SynthesizeRequest{
		Offers: serve.WireOffers(ds.IncomingOffers),
		Pages:  serve.WirePages(ds.Pages),
	}
}

// post sends a JSON body and returns the response with its body read.
func post(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(encodeJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// gateFetcher parks every Fetch until released, signalling the first
// parked call — the hook that holds a request in flight at a known point
// (the shedding, reload-pinning, timeout, and drain tests all hang a
// request off it). Once release is closed it is transparent.
type gateFetcher struct {
	inner    prodsynth.PageFetcher
	inflight chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newGate() *gateFetcher {
	return &gateFetcher{inflight: make(chan struct{}), release: make(chan struct{})}
}

// wrap is the Options.WrapFetcher hook installing this gate.
func (g *gateFetcher) wrap(inner prodsynth.PageFetcher) prodsynth.PageFetcher {
	return &gateInstance{gate: g, inner: inner}
}

type gateInstance struct {
	gate  *gateFetcher
	inner prodsynth.PageFetcher
}

func (g *gateInstance) Fetch(url string) (string, error) {
	g.gate.once.Do(func() { close(g.gate.inflight) })
	<-g.gate.release
	return g.inner.Fetch(url)
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (with slack for runtime housekeeping).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSynthesizeGoldenRoundTrip is the end-to-end acceptance test: a
// request through the HTTP layer must yield a body byte-identical to the
// response built from a direct SynthesizeContext call — the serving layer
// adds transport, never meaning — and repeating the request must yield
// the identical bytes again.
func TestSynthesizeGoldenRoundTrip(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	direct, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, prodsynth.MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Products) == 0 {
		t.Fatal("direct synthesis produced no products; the golden test would be vacuous")
	}
	want := encodeJSON(t, serve.ResponseFromResult(direct))

	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status = %d, body %s", i, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("round %d: Content-Type = %q", i, ct)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("round %d: HTTP body differs from direct synthesis:\n got: %s\nwant: %s", i, body, want)
		}
	}
}

// TestStreamNDJSONFraming pins the stream endpoint's wire format: one
// NDJSON line per wave in wave order, each byte-identical to the event
// built from a direct SynthesizeStream run, then exactly one final line
// carrying the merged view and the close-path seal events.
func TestStreamNDJSONFraming(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	const nWaves = 3
	waves := make([][]prodsynth.Offer, 0, nWaves)
	for i := 0; i < nWaves; i++ {
		lo, hi := i*len(ds.IncomingOffers)/nWaves, (i+1)*len(ds.IncomingOffers)/nWaves
		waves = append(waves, ds.IncomingOffers[lo:hi])
	}

	// Direct run, collecting the per-wave results and the final one.
	in := make(chan []prodsynth.Offer)
	out, err := sys.SynthesizeStream(context.Background(), in, prodsynth.MapFetcher(ds.Pages), prodsynth.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, w := range waves {
			in <- w
		}
		close(in)
	}()
	var direct []prodsynth.StreamResult
	for r := range out {
		direct = append(direct, r)
	}
	if len(direct) != nWaves+1 {
		t.Fatalf("direct stream emitted %d results, want %d waves + 1 final", len(direct), nWaves)
	}

	wireWaves := make([][]serve.OfferJSON, len(waves))
	for i, w := range waves {
		wireWaves[i] = serve.WireOffers(w)
	}
	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize/stream", serve.StreamRequest{
		Waves: wireWaves,
		Pages: serve.WirePages(ds.Pages),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != len(direct) {
		t.Fatalf("stream framed %d lines, want %d", len(lines), len(direct))
	}
	for i, line := range lines {
		want := encodeJSON(t, serve.EventFromStreamResult(direct[i]))
		if line+"\n" != string(want) {
			t.Errorf("line %d differs from direct stream event:\n got: %s\nwant: %s", i, line, want)
		}
	}
	// Framing shape: waves in order, then the final line with seal events.
	for i := 0; i < nWaves; i++ {
		var ev serve.StreamEventJSON
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "wave" || ev.Wave != i {
			t.Errorf("line %d: type %q wave %d, want wave %d", i, ev.Type, ev.Wave, i)
		}
	}
	var final serve.StreamEventJSON
	if err := json.Unmarshal([]byte(lines[nWaves]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "final" {
		t.Fatalf("last line type = %q, want final", final.Type)
	}
	if len(final.Sealed) == 0 || len(final.Sealed) != len(final.Products) {
		t.Errorf("final line: %d seal events for %d products; the close path seals every open cluster", len(final.Sealed), len(final.Products))
	}
	for _, s := range final.Sealed {
		if s.Reason == "" {
			t.Error("seal event with empty reason")
		}
	}
}

// streamRequest cuts a marketplace's incoming offers into n waves of a
// /v1/synthesize/stream body.
func streamRequest(ds *prodsynth.Marketplace, n int) serve.StreamRequest {
	req := serve.StreamRequest{Pages: serve.WirePages(ds.Pages)}
	for i := 0; i < n; i++ {
		lo, hi := i*len(ds.IncomingOffers)/n, (i+1)*len(ds.IncomingOffers)/n
		req.Waves = append(req.Waves, serve.WireOffers(ds.IncomingOffers[lo:hi]))
	}
	return req
}

// TestStreamMetricsCountOnce: a stream request adds each offer and each
// fetch to /metrics once, from its wave's line and not again from the
// final line that sums them, and each product once, when it is final:
// at its seal event with cluster memory on, in its wave's line with
// memory off.
func TestStreamMetricsCountOnce(t *testing.T) {
	ds, sys := learnedSystem(t)
	oneShot, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, prodsynth.MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	for _, memoryOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable_cluster_memory=%v", memoryOff), func(t *testing.T) {
			ts := httptest.NewServer(serve.New(sys, serve.Options{}))
			defer ts.Close()
			req := streamRequest(ds, 3)
			req.DisableClusterMemory = memoryOff
			resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize/stream", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}

			var fetches, products int
			lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
			for i, line := range lines {
				var ev serve.StreamEventJSON
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatal(err)
				}
				switch {
				case ev.Type == "final" && i == len(lines)-1:
					products += len(ev.Sealed)
				case ev.Type == "wave":
					fetches += ev.Fetch.Attempted
					if memoryOff {
						products += len(ev.Products)
					} else {
						products += len(ev.Sealed)
					}
				default:
					t.Fatalf("line %d of %d has type %q", i, len(lines), ev.Type)
				}
			}
			if fetches != len(ds.IncomingOffers) {
				t.Errorf("wave lines report %d fetches for %d offers", fetches, len(ds.IncomingOffers))
			}
			// Unbounded cluster memory seals every product once, at the
			// close: the one-shot run's products.
			if !memoryOff && products != len(oneShot.Products) {
				t.Errorf("stream sealed %d products, one-shot synthesized %d", products, len(oneShot.Products))
			}

			m := scrapeMetrics(t, ts)
			for _, want := range []string{
				fmt.Sprintf("synthd_offers_total %d", len(ds.IncomingOffers)),
				fmt.Sprintf("synthd_fetch_operations_total %d", fetches),
				fmt.Sprintf("synthd_products_total %d", products),
			} {
				if !strings.Contains(m, want+"\n") {
					t.Errorf("metrics missing %q", want)
				}
			}
		})
	}
}

// slowFinalFlush is a ResponseWriter whose Flush, once the final line has
// been written, sleeps past the request's deadline.
type slowFinalFlush struct {
	*httptest.ResponseRecorder
	sleep time.Duration
}

func (w *slowFinalFlush) Flush() {
	w.ResponseRecorder.Flush()
	if bytes.Contains(w.Body.Bytes(), []byte(`"type":"final"`)) {
		time.Sleep(w.sleep)
	}
}

// TestStreamDeadlineAfterFinal: a timeout_ms deadline that fires after
// the final line was written does not mark the complete stream as
// truncated with a trailing error line.
func TestStreamDeadlineAfterFinal(t *testing.T) {
	ds, sys := learnedSystem(t)
	req := streamRequest(ds, 3)
	req.TimeoutMillis = 1000
	w := &slowFinalFlush{ResponseRecorder: httptest.NewRecorder(), sleep: 1200 * time.Millisecond}
	r := httptest.NewRequest(http.MethodPost, "/v1/synthesize/stream", bytes.NewReader(encodeJSON(t, req)))
	serve.New(sys, serve.Options{}).ServeHTTP(w, r)

	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	var last serve.StreamEventJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "final" {
		t.Fatalf("last of %d lines has type %q (error %q), want final", len(lines), last.Type, last.Error)
	}
	if len(lines) != len(req.Waves)+1 {
		t.Errorf("stream framed %d lines, want %d waves + 1 final", len(lines), len(req.Waves))
	}
}

// TestAdmissionShedding holds one request in flight at MaxInFlight=1 and
// asserts the next is shed — 429, Retry-After, JSON error body — while
// operability endpoints keep answering; once the slot frees, requests are
// admitted again.
func TestAdmissionShedding(t *testing.T) {
	ds, sys := learnedSystem(t)
	gate := newGate()
	ts := httptest.NewServer(serve.New(sys, serve.Options{
		MaxInFlight: 1,
		WrapFetcher: gate.wrap,
	}))
	defer ts.Close()
	defer func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	}()

	req := synthesizeRequest(ds)
	type answer struct {
		status int
		body   []byte
	}
	first := make(chan answer, 1)
	go func() {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
		first <- answer{resp.StatusCode, body}
	}()
	<-gate.inflight // the first request is parked mid-fetch, holding the slot

	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	var errResp serve.ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Error == "" {
		t.Errorf("shed body = %s (unmarshal err %v), want JSON error", body, err)
	}

	// Operability endpoints are never gated by admission.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s under load: status = %d", path, r.StatusCode)
		}
	}

	// The shed is visible in metrics before the first request completes.
	if m := scrapeMetrics(t, ts); !strings.Contains(m, "synthd_shed_total 1") {
		t.Errorf("metrics after shed missing synthd_shed_total 1:\n%s", m)
	}

	close(gate.release)
	got := <-first
	if got.status != http.StatusOK {
		t.Fatalf("first request: status = %d, body %s", got.status, got.body)
	}
	// Slot released: the next request is admitted and succeeds.
	resp, body = post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestStalledBodyFreesSlot: a client that sends 11 of the 100 000 body
// bytes it promised and stalls holds its admission slot only until
// RequestTimeout, which runs from admission: its body read fails, it is
// answered 408, and the next request is admitted.
func TestStalledBodyFreesSlot(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{
		MaxInFlight:    1,
		RequestTimeout: 200 * time.Millisecond,
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := "POST /v1/synthesize HTTP/1.1\r\nHost: synthd\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n"
	if _, err := io.WriteString(conn, head+`{"offers":[`); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); !strings.Contains(scrapeMetrics(t, ts), "synthd_inflight_requests 1"); {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the stalled request was never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("the stalled request got no answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled request: status = %d, want 408", resp.StatusCode)
	}
	if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the stall: status = %d, want 200; body %s", resp.StatusCode, body)
	}
}

// TestReloadUnderLoad pins the generation contract during a hot swap: a
// request in flight when /v1/reload lands must answer entirely from the
// generation it started with, the next request from the new one, and the
// /metrics gauge must show the new generation — no response ever mixes
// the two.
func TestReloadUnderLoad(t *testing.T) {
	ds, sys := learnedSystem(t)
	startGen := sys.Generation()

	// The replacement model: re-learned from the same data (generation is
	// what distinguishes it on the wire).
	model2, err := prodsynth.Learn(context.Background(), ds.Catalog, ds.HistoricalOffers, prodsynth.MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	gate := newGate()
	ts := httptest.NewServer(serve.New(sys, serve.Options{
		WrapFetcher: gate.wrap,
		Reload:      func(context.Context) (*prodsynth.Model, error) { return model2, nil },
	}))
	defer ts.Close()

	req := synthesizeRequest(ds)
	type answer struct {
		status int
		body   []byte
	}
	first := make(chan answer, 1)
	go func() {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
		first <- answer{resp.StatusCode, body}
	}()
	<-gate.inflight // request parked mid-synthesis on the old generation

	resp, body := post(t, ts.Client(), ts.URL+"/v1/reload?wait=1", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status = %d, body %s", resp.StatusCode, body)
	}
	var reload struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &reload); err != nil {
		t.Fatal(err)
	}
	if reload.Status != "ok" || reload.Generation != startGen+1 {
		t.Fatalf("reload answered %+v, want ok at generation %d", reload, startGen+1)
	}

	close(gate.release)
	got := <-first
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request: status = %d, body %s", got.status, got.body)
	}
	var pinned serve.SynthesizeResponse
	if err := json.Unmarshal(got.body, &pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.ModelGeneration != startGen {
		t.Errorf("in-flight request answered from generation %d, want pinned start generation %d",
			pinned.ModelGeneration, startGen)
	}

	resp, body = post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload request: status = %d, body %s", resp.StatusCode, body)
	}
	var fresh serve.SynthesizeResponse
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ModelGeneration != startGen+1 {
		t.Errorf("post-reload request answered from generation %d, want %d", fresh.ModelGeneration, startGen+1)
	}
	if m := scrapeMetrics(t, ts); !strings.Contains(m, fmt.Sprintf("synthd_model_generation %d", startGen+1)) {
		t.Errorf("metrics missing synthd_model_generation %d:\n%s", startGen+1, m)
	}
}

// TestReloadEndpointStates covers the endpoint's refusal paths: 501
// without a Reload callback, 409 while a reload is in flight.
func TestReloadEndpointStates(t *testing.T) {
	_, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without callback: status = %d, want 501", resp.StatusCode)
	}
	ts.Close()

	started := make(chan struct{})
	block := make(chan struct{})
	var calls atomic.Int64
	_, sys2 := learnedSystem(t)
	ts2 := httptest.NewServer(serve.New(sys2, serve.Options{
		Reload: func(context.Context) (*prodsynth.Model, error) {
			calls.Add(1)
			close(started)
			<-block
			return sys2.Model(), nil
		},
	}))
	defer ts2.Close()

	resp, body := post(t, ts2.Client(), ts2.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async reload: status = %d, body %s", resp.StatusCode, body)
	}
	<-started
	resp, _ = post(t, ts2.Client(), ts2.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent reload: status = %d, want 409", resp.StatusCode)
	}
	close(block)
	// The background swap lands: generation bumps without another call.
	deadline := time.Now().Add(5 * time.Second)
	for sys2.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background reload never swapped the model")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() != 1 {
		t.Errorf("reload callback ran %d times, want 1", calls.Load())
	}
}

// TestGracefulDrain runs the full lifecycle on a real listener: cancel
// Run's context while a request is parked mid-synthesis, assert the
// server reports draining (readyz 503), the in-flight request completes
// with a full response, Run returns cleanly, and no goroutine outlives
// the drain.
func TestGracefulDrain(t *testing.T) {
	ds, sys := learnedSystem(t)
	gate := newGate()
	srv := serve.New(sys, serve.Options{WrapFetcher: gate.wrap, DrainTimeout: 10 * time.Second})

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx, ln) }()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + ln.Addr().String()
	type answer struct {
		status int
		body   []byte
	}
	first := make(chan answer, 1)
	go func() {
		resp, body := post(t, client, url+"/v1/synthesize", synthesizeRequest(ds))
		first <- answer{resp.StatusCode, body}
	}()
	<-gate.inflight

	cancel() // SIGTERM equivalent: stop accepting, drain in-flight
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
	// readyz fails during drain (the handler, exercised directly — the
	// listener has stopped accepting new connections by design).
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status = %d, want 503", rec.Code)
	}

	close(gate.release)
	got := <-first
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d, body %s", got.status, got.body)
	}
	var res serve.SynthesizeResponse
	if err := json.Unmarshal(got.body, &res); err != nil {
		t.Fatalf("drained response is not a full synthesis response: %v", err)
	}
	if len(res.Products) == 0 {
		t.Error("drained response carries no products")
	}
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v after a clean drain, want nil", err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestRequestTimeout asserts a request's timeout_ms bounds its synthesis:
// with fetches parked past the deadline the daemon answers 504 and the
// admission slot frees for the next request.
func TestRequestTimeout(t *testing.T) {
	ds, sys := learnedSystem(t)
	gate := newGate()
	ts := httptest.NewServer(serve.New(sys, serve.Options{WrapFetcher: gate.wrap}))
	defer ts.Close()

	req := synthesizeRequest(ds)
	req.TimeoutMillis = 30
	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var errResp serve.ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Error == "" {
		t.Errorf("timeout body = %s, want JSON error", body)
	}
	close(gate.release) // un-park the fetch goroutines so the pipeline drains
}

// TestRequestTimeoutOverflow: a timeout_ms too large for a time.Duration
// asks for more than the server's cap, so it tightens nothing. It must not
// wrap: 18446744073710 ms in nanoseconds wraps to 448µs, which a fetch
// slower than that would turn into a 504.
func TestRequestTimeoutOverflow(t *testing.T) {
	ds, sys := learnedSystem(t)
	var once sync.Once
	slow := func(inner prodsynth.PageFetcher) prodsynth.PageFetcher {
		return &slowFirstFetch{inner: inner, once: &once}
	}
	ts := httptest.NewServer(serve.New(sys, serve.Options{WrapFetcher: slow}))
	defer ts.Close()

	req := synthesizeRequest(ds)
	req.TimeoutMillis = 18446744073710
	if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
}

// slowFirstFetch delays the first fetch by 20ms.
type slowFirstFetch struct {
	inner prodsynth.PageFetcher
	once  *sync.Once
}

func (f *slowFirstFetch) Fetch(url string) (string, error) {
	f.once.Do(func() { time.Sleep(20 * time.Millisecond) })
	return f.inner.Fetch(url)
}

// TestDuplicatePageRejected is the serving half of the MapFetcher
// duplicate fix: a request repeating a page URL with a different body is
// a 400, while an exact repeat is tolerated.
func TestDuplicatePageRejected(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	req := synthesizeRequest(ds)
	req.Pages = append(req.Pages, serve.PageJSON{URL: req.Pages[0].URL, HTML: req.Pages[0].HTML + "<!-- conflict -->"})
	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting duplicate page: status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "duplicate page") {
		t.Errorf("error body %s does not name the duplicate page", body)
	}

	req = synthesizeRequest(ds)
	req.Pages = append(req.Pages, req.Pages[0]) // exact repeat: harmless
	resp, body = post(t, ts.Client(), ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact duplicate page: status = %d, want 200; body %s", resp.StatusCode, body)
	}
}

// TestBadRequests covers decode rejection: malformed JSON and unknown
// fields are 400 with a JSON error body.
func TestBadRequests(t *testing.T) {
	_, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed":     `{"offers": [`,
		"unknown_field": `{"offerz": []}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", name, resp.StatusCode, data)
		}
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMetricsExposition exercises the scrape after real traffic: request
// counters labeled by endpoint and code, the latency histogram's
// bucket/sum/count triple, throughput counters, and the generation gauge.
func TestMetricsExposition(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res serve.SynthesizeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		`synthd_requests_total{endpoint="synthesize",code="200"} 1`,
		`synthd_request_seconds_count{endpoint="synthesize"} 1`,
		`synthd_request_seconds_bucket{endpoint="synthesize",le="+Inf"} 1`,
		fmt.Sprintf("synthd_model_generation %d", sys.Generation()),
		fmt.Sprintf("synthd_offers_total %d", res.Offers),
		fmt.Sprintf("synthd_products_total %d", len(res.Products)),
		fmt.Sprintf("synthd_fetch_operations_total %d", res.Fetch.Attempted),
		"synthd_inflight_requests 0",
		"synthd_shed_total 0",
		"# TYPE synthd_request_seconds histogram",
		"# TYPE synthd_requests_total counter",
		"# TYPE synthd_model_generation gauge",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if resp, _ := ts.Client().Get(ts.URL + "/metrics"); resp != nil {
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("metrics Content-Type = %q", ct)
		}
		resp.Body.Close()
	}
}

// TestHealthEndpoints pins the liveness/readiness split: healthz is
// always 200; readyz is 200 on a learned server and 503 on an unlearned
// one.
func TestHealthEndpoints(t *testing.T) {
	_, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	unlearned := prodsynth.NewSystem(prodsynth.NewCatalog(), nil)
	ts2 := httptest.NewServer(serve.New(unlearned, serve.Options{}))
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz on unlearned system: status = %d, want 503", resp.StatusCode)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodyRejected: a body one byte over the 64 MiB cap is
// answered 413 and counted under code="413", and the server goes on
// serving: the next normal request gets 200. The body is an unterminated
// array padded with whitespace, so only the cap can end its decoding; it
// is exactly one byte over, so the server has read all of it before
// answering.
func TestOversizedBodyRejected(t *testing.T) {
	ds, sys := learnedSystem(t)
	ts := httptest.NewServer(serve.New(sys, serve.Options{}))
	defer ts.Close()

	const limit = 64 << 20
	head := `{"offers": [`
	body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, limit+1-int64(len(head))))
	req, err := http.NewRequest("POST", ts.URL+"/v1/synthesize", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = limit + 1
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413; body %s", resp.StatusCode, data)
	}

	if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the 413: status = %d, body %s", resp.StatusCode, body)
	}
	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		`synthd_requests_total{endpoint="synthesize",code="413"} 1`,
		`synthd_requests_total{endpoint="synthesize",code="200"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHandlerPanicRecovered: a handler that panics is answered 500 with a
// JSON error and counted under code="500"; its admission slot is
// released (with one slot, a leak would shed the next request with 429)
// and the next request gets 200.
func TestHandlerPanicRecovered(t *testing.T) {
	ds, sys := learnedSystem(t)
	var panicked atomic.Bool
	ts := httptest.NewServer(serve.New(sys, serve.Options{
		MaxInFlight: 1,
		Logger:      log.New(io.Discard, "", 0),
		WrapFetcher: func(pf prodsynth.PageFetcher) prodsynth.PageFetcher {
			if panicked.CompareAndSwap(false, true) {
				panic("wrap fetcher exploded")
			}
			return pf
		},
	}))
	defer ts.Close()

	resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("panicking request: body %q is not a JSON error (%v)", body, err)
	}
	if resp, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", synthesizeRequest(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status = %d, body %s", resp.StatusCode, body)
	}
	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		`synthd_requests_total{endpoint="synthesize",code="500"} 1`,
		`synthd_requests_total{endpoint="synthesize",code="200"} 1`,
		"synthd_inflight_requests 0",
		"synthd_shed_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReloadPanicRecovered: a Reload that panics is a failed reload, not
// a crash: wait mode answers 500, the failure is counted, the endpoint is
// free again, and the next reload swaps the model in.
func TestReloadPanicRecovered(t *testing.T) {
	_, sys := learnedSystem(t)
	model := sys.Model()
	var calls atomic.Int64
	ts := httptest.NewServer(serve.New(sys, serve.Options{
		Logger: log.New(io.Discard, "", 0),
		Reload: func(context.Context) (*prodsynth.Model, error) {
			if calls.Add(1) == 1 {
				panic("re-learn exploded")
			}
			return model, nil
		},
	}))
	defer ts.Close()

	gen := sys.Generation()
	resp, body := post(t, ts.Client(), ts.URL+"/v1/reload?wait=1", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking reload: status = %d, want 500; body %s", resp.StatusCode, body)
	}
	if sys.Generation() != gen {
		t.Fatalf("panicking reload moved the generation to %d", sys.Generation())
	}
	resp, body = post(t, ts.Client(), ts.URL+"/v1/reload?wait=1", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after the panic: status = %d, want 200; body %s", resp.StatusCode, body)
	}
	if sys.Generation() != gen+1 {
		t.Fatalf("generation = %d after a good reload, want %d", sys.Generation(), gen+1)
	}
	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		`synthd_reloads_total{result="error"} 1`,
		`synthd_reloads_total{result="ok"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
