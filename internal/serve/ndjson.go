package serve

import (
	"encoding/json"
	"net/http"

	"prodsynth"
)

// writeNDJSON drains a SynthesizeStream result channel onto an HTTP
// response as NDJSON: one JSON object per line, flushed after every line
// so clients observe wave results as they complete, not when the stream
// ends. observe is called for each result before it is written (the
// server folds successful results into its metrics there). final reports
// whether the stream's final line was written.
func writeNDJSON(w http.ResponseWriter, out <-chan prodsynth.StreamResult, observe func(prodsynth.StreamResult)) (final bool, err error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for res := range out {
		if observe != nil {
			observe(res)
		}
		if err := enc.Encode(EventFromStreamResult(res)); err != nil {
			// The client went away; drain the channel so the pipeline's
			// forwarding goroutine can exit, then report.
			for range out {
			}
			return false, err
		}
		final = res.Final
		if flusher != nil {
			flusher.Flush()
		}
	}
	return final, nil
}

// writeNDJSONError appends a terminal error line to an NDJSON stream that
// ended without its final result (e.g. the request deadline fired), so
// clients can distinguish truncation from completion.
func writeNDJSONError(w http.ResponseWriter, err error) {
	enc := json.NewEncoder(w)
	enc.Encode(StreamEventJSON{Type: "error", Error: err.Error()}) //nolint:errcheck // client may be gone
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}
