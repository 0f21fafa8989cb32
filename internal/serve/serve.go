// Package serve is the synthesis daemon's HTTP layer: request handling,
// admission control, metrics, hot reload, and graceful drain around a
// prodsynth.System. cmd/synthd is a thin flag-parsing shell over this
// package; everything observable about the daemon is implemented — and
// tested — here.
//
// Endpoints:
//
//	POST /v1/synthesize         offers + pages in, products + fetch report out
//	POST /v1/synthesize/stream  waves in, NDJSON per-wave results (incl. seal events) out
//	POST /v1/reload             re-learn in the background, atomically swap the model
//	GET  /healthz               liveness (200 while the process runs)
//	GET  /readyz                readiness (503 while draining or unlearned)
//	GET  /metrics               Prometheus text format
//
// Production posture:
//
//   - Admission control: at most Options.MaxInFlight synthesis requests
//     run concurrently; excess load is shed immediately with 429 and a
//     Retry-After header instead of queueing without bound.
//   - Deadlines: every synthesis request runs under a context with the
//     server's RequestTimeout (a request may tighten, never extend, it),
//     so a stuck fetch cannot pin a slot forever.
//   - Hot reload: /v1/reload runs the Options.Reload callback in the
//     background and System.Use-swaps the result while traffic keeps
//     serving the old model; in-flight requests are pinned to the
//     generation they started with and every response carries its
//     model_generation, so a swap can never mix two models in one answer.
//   - Graceful drain: Run stops accepting on context cancellation
//     (SIGTERM in cmd/synthd), lets in-flight requests finish, and bounds
//     the wait with Options.DrainTimeout.
//   - Connection limits: a request body over maxRequestBody is answered
//     413 without being decoded further, and Run's http.Server bounds how
//     long a client may take to send its headers and how long an idle
//     keep-alive connection stays open.
//   - Panic recovery: a panicking handler is answered 500 and counted
//     like any other request, and a panicking Reload is a failed reload;
//     neither takes the daemon down.
//
// Request decoding: a /v1/synthesize body is read whole and decoded in
// one pass by decodeRequest, which accepts only the canonical subset of
// JSON that json.Marshal writes for a SynthesizeRequest: the exact
// lower-case keys of the struct tags, each at most once per object;
// strings with the standard escapes (\uXXXX outside the surrogate range)
// that decode to valid UTF-8; integers in int64 range, with no fraction or
// exponent. Every other body (null, case-variant, escaped or duplicate
// keys, surrogate escapes, invalid UTF-8, 1.0 or 1e3, unknown fields,
// syntax errors, a failed read) is decoded by encoding/json's Decoder with
// unknown fields refused, as all bodies were before: it alone decides
// their status, error body and value. /v1/synthesize/stream bodies always
// take encoding/json.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"prodsynth"
)

// Fixed limits on what a client can hold or send.
const (
	// maxRequestBody caps a request body; the 256-offer bench request is
	// under 1 MiB.
	maxRequestBody = 64 << 20
	// readHeaderTimeout bounds how long a connection may take to send
	// its request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection idle this long.
	idleTimeout = 2 * time.Minute
	// maxChunk caps the chunks a /v1/synthesize body is read into.
	maxChunk = 1 << 20
)

// Options configures a Server. The zero value serves with the defaults
// noted per field.
type Options struct {
	// MaxInFlight caps concurrently admitted synthesis requests (both
	// endpoints share the cap); excess requests are shed with 429.
	// Default 64.
	MaxInFlight int
	// RequestTimeout bounds each synthesis request's context. A request
	// may ask for less via timeout_ms, never more. Default 30s; negative
	// disables the server-side deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain: when Run's context is
	// cancelled the listener closes and in-flight requests get up to this
	// long to finish. Default 15s; negative waits forever.
	DrainTimeout time.Duration
	// Reload produces a replacement Model for /v1/reload — typically a
	// background re-Learn over fresh historical data, or re-reading a
	// bundle. Nil disables the endpoint (501). It runs outside any
	// request deadline; errors, and panics (recovered as errors), are
	// reported to the /v1/reload caller (in wait mode) and counted in
	// synthd_reloads_total{result="error"}.
	Reload func(ctx context.Context) (*prodsynth.Model, error)
	// WrapFetcher, when set, wraps the page fetcher built from each
	// request's pages before synthesis — the seam for a ResilientFetcher
	// retry policy in production and for gating fetches in tests.
	WrapFetcher func(prodsynth.PageFetcher) prodsynth.PageFetcher
	// Logger receives operational log lines. Nil uses log.Default.
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// Server is the daemon's HTTP layer over one prodsynth.System. Create
// with New, mount as an http.Handler (it serves its own mux), and run
// with Run for listener lifecycle + graceful drain.
type Server struct {
	sys  *prodsynth.System
	opts Options
	mux  *http.ServeMux
	adm  *admission

	draining  atomic.Bool
	reloading atomic.Bool

	reg *Registry
	// Instruments. Request counters are labeled per endpoint and code at
	// observation time; the fields here are the unlabeled singletons.
	inflight  *Gauge
	shed      *Counter
	modelGen  *Gauge
	offers    *Counter
	products  *Counter
	fetchOps  *Counter
	fetchAtt  *Counter
	fetchRet  *Counter
	fetchRec  *Counter
	fetchGave *Counter
	fetchBrk  *Counter
	feedOnly  *Counter
}

// New builds a Server over a learned System.
func New(sys *prodsynth.System, opts Options) *Server {
	s := &Server{sys: sys, opts: opts.withDefaults(), reg: NewRegistry()}
	s.inflight = s.reg.Gauge("synthd_inflight_requests", "Synthesis requests currently admitted.")
	s.shed = s.reg.Counter("synthd_shed_total", "Synthesis requests shed with 429 by admission control.")
	s.adm = newAdmission(s.opts.MaxInFlight, s.inflight, s.shed)
	s.modelGen = s.reg.Gauge("synthd_model_generation", "Generation of the model currently serving (bumped by every hot reload).")
	s.modelGen.Set(int64(sys.Generation()))
	s.offers = s.reg.Counter("synthd_offers_total", "Offers processed by synthesis requests.")
	s.products = s.reg.Counter("synthd_products_total", "Products synthesized by requests.")
	s.fetchOps = s.reg.Counter("synthd_fetch_operations_total", "Landing-page fetch operations started.")
	s.fetchAtt = s.reg.Counter("synthd_fetch_attempts_total", "Landing-page fetch attempts (including retries).")
	s.fetchRet = s.reg.Counter("synthd_fetch_retried_total", "Fetch operations that needed more than one attempt.")
	s.fetchRec = s.reg.Counter("synthd_fetch_recovered_total", "Fetch operations recovered by retries.")
	s.fetchGave = s.reg.Counter("synthd_fetch_gaveup_total", "Fetch operations whose final outcome was an error.")
	s.fetchBrk = s.reg.Counter("synthd_fetch_breaker_rejected_total", "Fetch operations rejected by an open circuit breaker.")
	s.feedOnly = s.reg.Counter("synthd_feed_only_offers_total", "Offers that proceeded on feed spec alone (lenient degradation).")

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/synthesize", s.instrument("synthesize", s.admitted(s.handleSynthesize)))
	s.mux.HandleFunc("POST /v1/synthesize/stream", s.instrument("synthesize_stream", s.admitted(s.handleStream)))
	s.mux.HandleFunc("POST /v1/reload", s.instrument("reload", s.handleReload))
	return s
}

// Metrics returns the server's registry, for embedding callers that want
// to add their own series to the same scrape.
func (s *Server) Metrics() *Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Run serves on ln until ctx is cancelled, then drains: the listener
// closes (new connections are refused, /readyz has already been failing
// since the cancel), in-flight requests run to completion, and the whole
// drain is bounded by Options.DrainTimeout. Returns nil after a clean
// drain; context.DeadlineExceeded if the drain timed out with requests
// still in flight; the listener error if serving failed outright.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		// Serve failed before any drain was requested.
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	//lint:allow ctxfirst drain must outlive the cancelled run ctx: a fresh root context (deadline-bounded below) is the point
	dctx := context.Background()
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, s.opts.DrainTimeout)
		defer cancel()
	}
	err := hs.Shutdown(dctx)
	<-serveErr // always http.ErrServerClosed once Shutdown ran
	return err
}

// Draining reports whether the server has begun graceful drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps a handler with request counting and latency
// observation, labeled by endpoint and status code. It also recovers a
// handler panic: the request is answered 500 when nothing was written
// yet, and counted as a 500 either way. A response already under way
// cannot change its status, so its connection is dropped after counting
// (http.ErrAbortHandler), and the client sees it cut short.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			p := recover()
			midResponse := p != nil && sw.wrote
			if p != nil {
				s.opts.Logger.Printf("synthd: panic serving %s: %v\n%s", endpoint, p, debug.Stack())
				if !midResponse {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
				sw.code = http.StatusInternalServerError
			}
			s.reg.Counter("synthd_requests_total", "HTTP requests served.",
				"endpoint", endpoint, "code", fmt.Sprint(sw.code)).Inc()
			s.reg.Histogram("synthd_request_seconds", "HTTP request latency in seconds.",
				"endpoint", endpoint).Observe(time.Since(start).Seconds())
			if midResponse {
				panic(http.ErrAbortHandler)
			}
		}()
		h(sw, r)
	}
}

// admitted wraps a synthesis handler with the admission controller.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.adm.tryAcquire() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("admission: %d synthesis requests already in flight", s.opts.MaxInFlight))
			return
		}
		defer s.adm.release()
		h(w, r)
	}
}

// statusWriter records the status code written and whether anything was
// (and forwards Flush, which the NDJSON stream handler depends on).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg}) //nolint:errcheck // best effort on an error path
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.sys.Model() == nil:
		http.Error(w, "no model", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w) //nolint:errcheck // a dropped scrape is the scraper's problem
}

// requestCtx derives the synthesis context: the server's timeout, tightened
// by the request's timeout_ms when that is smaller. A timeout_ms too large
// for a time.Duration tightens nothing; it must not wrap to a short one.
func (s *Server) requestCtx(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	timeout := s.opts.RequestTimeout
	if timeoutMillis > 0 && timeoutMillis <= math.MaxInt64/int64(time.Millisecond) {
		if reqTO := time.Duration(timeoutMillis) * time.Millisecond; timeout <= 0 || reqTO < timeout {
			timeout = reqTO
		}
	}
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// observeResult folds a synthesis result into the fetch/throughput
// counters.
func (s *Server) observeResult(res *prodsynth.Result) {
	s.offers.Add(uint64(res.Offers))
	s.products.Add(uint64(len(res.Products)))
	s.observeFetch(res.Fetch)
}

// observeStream folds one stream result into the same counters. Offers
// and fetches count from wave results only, since the final result sums
// them again. A product counts once, when it is final: at its seal event
// with cluster memory on, in its wave's result with memory off.
func (s *Server) observeStream(res *prodsynth.StreamResult, memoryOff bool) {
	if res.Err != nil {
		return
	}
	products := len(res.Sealed)
	if !res.Final {
		s.offers.Add(uint64(res.Offers))
		s.observeFetch(res.Fetch)
		if memoryOff {
			products = len(res.Products)
		}
	}
	s.products.Add(uint64(products))
}

func (s *Server) observeFetch(f prodsynth.FetchReport) {
	s.fetchOps.Add(uint64(f.Attempted))
	s.fetchAtt.Add(uint64(f.Attempts))
	s.fetchRet.Add(uint64(f.Retried))
	s.fetchRec.Add(uint64(f.Recovered))
	s.fetchGave.Add(uint64(f.GaveUp))
	s.fetchBrk.Add(uint64(f.BreakerRejected))
	s.feedOnly.Add(uint64(len(f.FeedOnly)))
}

// fetcher builds the request's page fetcher (rejecting conflicting
// duplicate URLs) and applies the server's WrapFetcher seam.
func (s *Server) fetcher(pages []PageJSON) (prodsynth.PageFetcher, error) {
	mf, err := fetcherFromWire(pages)
	if err != nil {
		return nil, err
	}
	var pf prodsynth.PageFetcher = mf
	if s.opts.WrapFetcher != nil {
		pf = s.opts.WrapFetcher(pf)
	}
	return pf, nil
}

// decodeSynthesize reads a /v1/synthesize body whole and decodes it with
// decodeRequest. A body that decoder does not accept, and one whose read
// failed, goes to decodeJSON: the same bytes, then the read's error, so
// every status, error body and value is encoding/json's.
func decodeSynthesize(w http.ResponseWriter, r *http.Request, req *SynthesizeRequest) bool {
	chunks, err := readChunks(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err == nil && decodeRequest(bytes.Join(chunks, nil), req) {
		return true
	}
	*req = SynthesizeRequest{}
	// io.MultiReader drops each chunk's reader once the decoder has read
	// it, so what has been replayed can be freed while the decoder's own
	// buffer grows: a body over the cap is not held twice throughout.
	rest := make([]io.Reader, 0, len(chunks)+1)
	for _, c := range chunks {
		rest = append(rest, bytes.NewReader(c))
	}
	if err != nil {
		rest = append(rest, failedRead{err})
	}
	return decodeJSON(w, io.MultiReader(rest...), req)
}

// readChunks reads r to its end in chunks that double in size up to
// maxChunk. They grow as the bytes arrive, never from Content-Length:
// that header is the client's to set.
func readChunks(r io.Reader) ([][]byte, error) {
	var chunks [][]byte
	for size := 4 << 10; ; size = min(2*size, maxChunk) {
		c := make([]byte, 0, size)
		var err error
		for len(c) < cap(c) && err == nil {
			var n int
			n, err = r.Read(c[len(c):cap(c)])
			c = c[:len(c)+n]
		}
		chunks = append(chunks, c)
		if err == io.EOF {
			return chunks, nil
		}
		if err != nil {
			return chunks, err
		}
	}
}

// failedRead replays a body read's error after the bytes that arrived.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// decodeJSON decodes one JSON value from body into into with encoding/json,
// unknown fields refused, answering 400 for a malformed body and 413 for
// one over maxRequestBody.
func decodeJSON(w http.ResponseWriter, body io.Reader, into any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decode request: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	if !decodeSynthesize(w, r, &req) {
		return
	}
	fetcher, err := s.fetcher(req.Pages)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMillis)
	defer cancel()

	res, err := s.sys.SynthesizeContext(ctx, OffersFromWire(req.Offers), fetcher)
	if err != nil {
		writeError(w, synthesisErrorCode(ctx, err), err.Error())
		return
	}
	s.observeResult(res)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(ResponseFromResult(res)); err != nil {
		s.opts.Logger.Printf("synthd: write response: %v", err)
	}
}

// synthesisErrorCode maps a pipeline failure to a status: deadline 504,
// client-gone 499 (nginx's convention; the client will never read it),
// anything else 500.
func synthesisErrorCode(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	if !decodeJSON(w, http.MaxBytesReader(w, r.Body, maxRequestBody), &req) {
		return
	}
	fetcher, err := s.fetcher(req.Pages)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMillis)
	defer cancel()

	waves := make(chan []prodsynth.Offer)
	out, err := s.sys.SynthesizeStream(ctx, waves, fetcher, streamOptionsFromWire(&req))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Feed the request's waves; the pipeline applies backpressure. The
	// send select on ctx keeps the feeder from deadlocking when the
	// stream dies mid-request.
	//lint:allow spawncheck feeder exits when the request ctx cancels or every wave is sent; the stream it feeds is drained to completion by writeNDJSON below
	go func() {
		defer close(waves)
		for _, wave := range req.Waves {
			select {
			case waves <- OffersFromWire(wave):
			case <-ctx.Done():
				return
			}
		}
	}()

	final, err := writeNDJSON(w, out, func(res prodsynth.StreamResult) {
		s.observeStream(&res, req.DisableClusterMemory)
	})
	if err != nil {
		s.opts.Logger.Printf("synthd: stream write: %v", err)
	}
	// A stream cancelled before its final line was written ends with an
	// error line, so the client can tell truncation from completion. A
	// deadline that fires after the final line truncates nothing.
	if !final && ctx.Err() != nil {
		writeNDJSONError(w, ctx.Err())
	}
}

// handleReload swaps in a new model without downtime. The learn runs in
// the background — the endpoint answers 202 immediately — unless the
// caller asks to wait (?wait=1), which blocks until the swap and reports
// the new generation (the deterministic mode tests and operators use).
// One reload runs at a time; concurrent requests get 409.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.Reload == nil {
		writeError(w, http.StatusNotImplemented, "reload is not configured on this server")
		return
	}
	if !s.reloading.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, "a reload is already in flight")
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	done := make(chan error, 1)
	go func() {
		err := s.reload()
		// Cleared before the waiter hears the outcome, so a reload it
		// sends next is never refused as concurrent.
		s.reloading.Store(false)
		done <- err
	}()

	w.Header().Set("Content-Type", "application/json")
	if !wait {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"status":     "accepted",
			"generation": s.sys.Generation(),
		})
		return
	}
	if err := <-done; err != nil {
		writeError(w, http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"status":     "ok",
		"generation": s.sys.Generation(),
	})
}

// reload runs Options.Reload and swaps its model in, counting the
// outcome. A panic in Reload is recovered as a failed reload, so a broken
// re-learn cannot take the daemon down.
func (s *Server) reload() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			s.opts.Logger.Printf("synthd: panic in reload: %v\n%s", p, debug.Stack())
		}
		if err != nil {
			s.reg.Counter("synthd_reloads_total", "Hot reloads by outcome.", "result", "error").Inc()
			s.opts.Logger.Printf("synthd: reload failed: %v", err)
		}
	}()
	// Deliberately not the request context: a background reload must
	// survive the 202 response (and the client's disconnect).
	//lint:allow ctxfirst background reload outliving the triggering request is the endpoint's contract
	model, err := s.opts.Reload(context.Background())
	if err != nil {
		return err
	}
	s.sys.Use(model)
	gen := s.sys.Generation()
	s.modelGen.Set(int64(gen))
	s.reg.Counter("synthd_reloads_total", "Hot reloads by outcome.", "result", "ok").Inc()
	s.opts.Logger.Printf("synthd: reload complete, serving model generation %d", gen)
	return nil
}
