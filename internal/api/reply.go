package api

import (
	"encoding/json"
	"net/http"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// This file is the reply side of the wire contract: how a crackserve
// node and the router put a response on the wire. Both front ends call
// these writers and count every error they return as an encode
// failure, so a change to framing or flushing happens in one place.

// WriteJSON writes v as a JSON reply with the given status. It returns
// the encode or write error, if any.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// MethodGate rejects every method but the given one with 405, an Allow
// header and an ErrorResponse body, per RFC 9110 §15.5.6. failed gets
// the error of a 405 reply that could not be written.
func MethodGate(method string, failed func(error), h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			if err := WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: method + " required"}); err != nil {
				failed(err)
			}
			return
		}
		h(w, r)
	})
}

// WantTrace reports whether a query asked for its phase span tree:
// "trace":true in the body, or an X-Crack-Trace header (any value but
// "0" and "false").
func WantTrace(q QueryRequest, r *http.Request) bool {
	if q.Trace {
		return true
	}
	switch r.Header.Get("X-Crack-Trace") {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

// QueryReply is one successful query answer on its way to the client.
type QueryReply struct {
	// Resp is the answer; the writers fill its LatencyUs from Start.
	Resp QueryResponse
	// Project orders the projected columns in the binary stream.
	Project []string
	// Start is when the request arrived.
	Start time.Time
	// Trace, when non-nil, times the encode as the wire_encode span and
	// ships the finished span tree with the reply; Observe, when
	// non-nil, sees that tree before it is serialised.
	Trace   *trace.Recorder
	Observe func(*trace.Span)
}

// finish closes the wire_encode span and serialises the finished tree.
func (r *QueryReply) finish() ([]byte, error) {
	r.Trace.End(trace.Work{})
	root := r.Trace.Finish()
	if r.Observe != nil {
		r.Observe(root)
	}
	return json.Marshal(root)
}

// WriteJSON writes the answer as a QueryResponse document. For traced
// replies the payload encode happens inside the wire_encode span, so
// the span tree can only be serialised afterwards: the response is
// marshalled without the trace, and the tree is spliced in as the
// final field.
func (r *QueryReply) WriteJSON(w http.ResponseWriter) error {
	r.Resp.LatencyUs = time.Since(r.Start).Microseconds()
	if r.Trace == nil {
		return WriteJSON(w, http.StatusOK, r.Resp)
	}
	r.Trace.Begin(trace.PhaseEncode)
	body, err := json.Marshal(r.Resp)
	var spanJSON []byte
	if err == nil {
		spanJSON, err = r.finish()
	}
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return err
	}
	spliced := make([]byte, 0, len(body)+len(spanJSON)+16)
	spliced = append(spliced, body[:len(body)-1]...) // drop the closing brace
	spliced = append(spliced, `,"trace":`...)
	spliced = append(spliced, spanJSON...)
	spliced = append(spliced, '}')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err = w.Write(spliced)
	return err
}

// WriteBinary streams the answer in the binary columnar format: a
// header frame, the rows and projected columns in blocks of blockRows
// rows (one block when zero), and a footer. Each frame is written —
// and, when the ResponseWriter supports it, each block is flushed — as
// a unit, so clients see complete frames as soon as they are encoded.
// Column vectors are sliced straight out of the answer; nothing is
// re-marshalled per value, so the caller must keep the answer's arrays
// (and any epoch pin behind them) alive until WriteBinary returns.
//
// For traced replies the header and block encoding is timed as the
// wire_encode span, and the finished span tree rides in a trace frame
// between the last block and the footer.
func (r *QueryReply) WriteBinary(w http.ResponseWriter, blockRows int) error {
	w.Header().Set("Content-Type", wire.ContentType)
	enc := wire.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if r.Trace != nil {
		r.Trace.Begin(trace.PhaseEncode)
	}
	if err := enc.WriteHeader(wire.Header{Count: r.Resp.Count, Path: r.Resp.Path, Columns: r.Project}); err != nil {
		return err
	}
	rows := r.Resp.Rows
	n := len(rows)
	if blockRows <= 0 || blockRows > n {
		blockRows = n
	}
	vecs := make([][]column.Value, len(r.Project))
	for i, name := range r.Project {
		vecs[i] = r.Resp.Columns[name]
	}
	cols := make([][]column.Value, len(vecs))
	for start := 0; start < n; start += blockRows {
		end := min(start+blockRows, n)
		for i, vec := range vecs {
			cols[i] = vec[start:end]
		}
		if err := enc.WriteBlock(rows[start:end], cols); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.Trace != nil {
		spanJSON, err := r.finish()
		if err == nil {
			err = enc.WriteTrace(spanJSON)
		}
		if err != nil {
			return err
		}
	}
	return enc.WriteFooter(wire.Footer{TotalRows: uint64(n), LatencyUs: uint64(time.Since(r.Start).Microseconds())})
}
