package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// toQuery converts the wire form to the service-level query.
func toQuery(q api.QueryRequest) Query {
	return Query{Table: q.Table, Column: q.Column, R: q.Range(), Project: q.Project, Path: q.Path}
}

// Handler returns the service's HTTP surface:
//
//	POST /query         answer one query (see api.QueryRequest)
//	POST /update        apply inserts/deletes (see api.UpdateRequest)
//	GET  /stats         observable service + catalog + planner state (see Stats)
//	GET  /metrics       Prometheus text exposition of the same counters
//	GET  /debug/events  reorganisation event log (cursor: ?since=seq)
//	GET  /healthz       liveness + readiness probe
//	GET  /fingerprint   stable hash of the catalog shape and row counts
//
// Every route answers the wrong method with 405 and an Allow header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", s.methodGate(http.MethodPost, s.handleQuery))
	mux.Handle("/update", s.methodGate(http.MethodPost, s.handleUpdate))
	mux.Handle("/stats", s.methodGate(http.MethodGet, s.handleStats))
	mux.Handle("/metrics", s.methodGate(http.MethodGet, s.handleMetrics))
	mux.Handle("/debug/events", s.methodGate(http.MethodGet, s.handleEvents))
	mux.Handle("/healthz", s.methodGate(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		// A running Service is by definition restored and serving; the
		// not-ready half of the probe lives in the daemon's boot gate,
		// which answers 503 {"ok":true,"ready":false} until the engine
		// is up and swaps this handler in.
		s.writeJSON(w, http.StatusOK, api.Health{OK: true, Ready: true})
	}))
	mux.Handle("/fingerprint", s.methodGate(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		// The fingerprint hashes schema + row population, so a router
		// can verify a restarted node restored the stripe it owned.
		s.writeJSON(w, http.StatusOK, api.FingerprintResponse{
			Fingerprint: api.CatalogFingerprint(s.Stats().Tables),
		})
	}))
	return mux
}

// methodGate rejects every method but the given one with 405 and an
// Allow header, per RFC 9110 §15.5.6.
func (s *Service) methodGate(method string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			s.writeJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: method + " required"})
			return
		}
		h(w, r)
	})
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	u, err := api.DecodeUpdate(r.Body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid update: %v", err)})
		return
	}
	ops, err := u.WriteOps()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	start := time.Now()
	reply, err := s.Apply(ops)
	if err != nil {
		// Ops apply in order and the failed request's applied prefix
		// stays applied (see Apply), so the error response must carry
		// it — a client that loses the assigned row identifiers can
		// never reconcile its bookkeeping with the server again.
		s.writeJSON(w, statusFor(err), struct {
			api.ErrorResponse
			Inserted []column.RowID `json:"inserted,omitempty"`
			Deleted  int            `json:"deleted"`
		}{api.ErrorResponse{Error: err.Error()}, reply.Inserted, reply.Deleted})
		return
	}
	s.writeJSON(w, http.StatusOK, api.UpdateResponse{
		Inserted:       reply.Inserted,
		Deleted:        reply.Deleted,
		PendingInserts: reply.PendingInserts,
		PendingDeletes: reply.PendingDeletes,
		LatencyUs:      time.Since(start).Microseconds(),
	})
}

// wantTrace reports whether the request asked for a phase span tree:
// "trace":true in the body, or an X-Crack-Trace header (any value but
// "0" and "false").
func wantTrace(q api.QueryRequest, r *http.Request) bool {
	if q.Trace {
		return true
	}
	switch v := r.Header.Get("X-Crack-Trace"); v {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := api.DecodeQuery(r.Body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid query: %v", err)})
		return
	}
	binary, blockRows := wire.Negotiate(r.Header.Get("Accept"))
	var rec *trace.Recorder
	if wantTrace(q, r) {
		rec = trace.NewRecorder()
	}
	start := time.Now()
	var reply Reply
	switch q.Op {
	case "", "count":
		reply, err = s.do(opCount, toQuery(q), rec)
	case "select":
		reply, err = s.do(opSelect, toQuery(q), rec)
	default:
		s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("unknown op %q (want count or select)", q.Op)})
		return
	}
	if err != nil {
		// Failures are always JSON, whatever the client negotiated:
		// error bodies are for humans and logs, not column decoders.
		s.writeJSON(w, statusFor(err), api.ErrorResponse{Error: err.Error()})
		return
	}
	if reply.Done != nil {
		// Epoch-pinned replies stay pinned until the response — every
		// streamed frame included — has been handed to the client.
		defer reply.Done()
	}
	if binary {
		s.writeBinary(w, q, reply, blockRows, start, rec)
		return
	}
	resp := api.QueryResponse{
		Count:     reply.Count,
		Rows:      reply.Rows,
		Columns:   reply.Columns,
		Path:      reply.Path.String(),
		LatencyUs: time.Since(start).Microseconds(),
	}
	if rec == nil {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	// The payload encode happens inside the wire_encode span, so the
	// span tree can only be serialised afterwards: marshal the response
	// without the trace, then splice the tree in as the final field.
	rec.Begin(trace.PhaseEncode)
	body, err := json.Marshal(resp)
	rec.End(trace.Work{})
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
		return
	}
	root := rec.Finish()
	s.observePhases(root)
	spanJSON, err := json.Marshal(root)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
		return
	}
	spliced := make([]byte, 0, len(body)+len(spanJSON)+16)
	spliced = append(spliced, body[:len(body)-1]...) // drop the closing brace
	spliced = append(spliced, `,"trace":`...)
	spliced = append(spliced, spanJSON...)
	spliced = append(spliced, '}')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(spliced); err != nil {
		s.encodeFailed("json", err)
	}
}

// writeBinary streams one successful query result in the binary
// columnar format: a header frame, the rows and projected columns in
// blocks of blockRows rows (one block when zero), and a footer. Each
// frame is written — and, when the ResponseWriter supports it, flushed
// — as a unit, so clients see complete frames as soon as the data
// plane produces them instead of waiting for a fully materialised
// body. Column vectors are sliced straight out of the engine result;
// nothing is re-marshalled per value.
//
// For traced queries (rec non-nil) the header and block encoding is
// timed as the wire_encode phase and the finished span tree rides in a
// trace frame between the last block and the footer.
func (s *Service) writeBinary(w http.ResponseWriter, q api.QueryRequest, reply Reply, blockRows int, start time.Time, rec *trace.Recorder) {
	w.Header().Set("Content-Type", wire.ContentType)
	enc := wire.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if rec != nil {
		rec.Begin(trace.PhaseEncode)
	}
	h := wire.Header{Count: reply.Count, Path: reply.Path.String(), Columns: q.Project}
	if err := enc.WriteHeader(h); err != nil {
		s.encodeFailed("binary", err)
		return
	}
	res := engine.Result{Count: reply.Count, Rows: reply.Rows, Columns: reply.Columns}
	err := res.Blocks(q.Project, blockRows, func(rows column.IDList, cols [][]column.Value) error {
		if err := enc.WriteBlock(rows, cols); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		s.encodeFailed("binary", err)
		return
	}
	if rec != nil {
		rec.End(trace.Work{})
		root := rec.Finish()
		s.observePhases(root)
		spanJSON, err := json.Marshal(root)
		if err == nil {
			err = enc.WriteTrace(spanJSON)
		}
		if err != nil {
			s.encodeFailed("binary", err)
			return
		}
	}
	f := wire.Footer{TotalRows: uint64(len(reply.Rows)), LatencyUs: uint64(time.Since(start).Microseconds())}
	if err := enc.WriteFooter(f); err != nil {
		s.encodeFailed("binary", err)
	}
}

// statusFor maps service errors to HTTP statuses: client mistakes
// (unknown tables, columns, paths) are 400s, backpressure and shutdown
// are 503s, anything else is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownTable),
		errors.Is(err, engine.ErrUnknownColumn),
		errors.Is(err, engine.ErrUnknownPath),
		errors.Is(err, engine.ErrRowArity),
		errors.Is(err, ErrProjectWithCount),
		errors.Is(err, ErrEmptyWrite):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrRowNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// eventsResponse is the wire form of one /debug/events poll. Clients
// replay the log by polling with since=<last seen seq>; Dropped warns
// when the ring evicted events the cursor never saw.
type eventsResponse struct {
	Events   []trace.Event `json:"events"`
	LastSeq  uint64        `json:"last_seq"`
	Dropped  uint64        `json:"dropped"`
	Capacity int           `json:"capacity"`
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	var max int
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid since: %v", err)})
			return
		}
		since = n
	}
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "invalid max: want a non-negative integer"})
			return
		}
		max = n
	}
	events, dropped := s.events.Since(since, max)
	if events == nil {
		events = []trace.Event{} // "[]", not "null": the poll loop is cursor arithmetic
	}
	s.writeJSON(w, http.StatusOK, eventsResponse{
		Events:   events,
		LastSeq:  s.events.LastSeq(),
		Dropped:  dropped,
		Capacity: s.events.Capacity(),
	})
}

func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailed("json", err)
	}
}

// encodeFailed records a response that could not be encoded or written
// back to the client. The status line is usually gone by the time the
// failure surfaces, so all that is left is to count it (encode_failures
// in /stats) and log it — silently dropping the error would make a
// flapping client or a marshalling bug invisible.
func (s *Service) encodeFailed(proto string, err error) {
	s.encodeFailures.Add(1)
	log.Printf("server: %s response encode failed: %v", proto, err)
}
