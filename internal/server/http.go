package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"adaptiveindex/internal/api"
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
//	GET  /stats         observable service + catalog + planner state (see api.Stats)
//	GET  /metrics       Prometheus text exposition of the same counters
//	GET  /debug/events  reorganisation event log (cursor: ?since=seq)
//	GET  /healthz       liveness + readiness probe
//	GET  /fingerprint   stable hash of the catalog shape and row counts
//
// Every route answers the wrong method with 405 and an Allow header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", api.MethodGate(http.MethodPost, s.encodeFailed, s.handleQuery))
	mux.Handle("/update", api.MethodGate(http.MethodPost, s.encodeFailed, s.handleUpdate))
	mux.Handle("/stats", api.MethodGate(http.MethodGet, s.encodeFailed, s.handleStats))
	mux.Handle("/metrics", api.MethodGate(http.MethodGet, s.encodeFailed, s.handleMetrics))
	mux.Handle("/debug/events", api.MethodGate(http.MethodGet, s.encodeFailed, s.handleEvents))
	mux.Handle("/healthz", api.MethodGate(http.MethodGet, s.encodeFailed, func(w http.ResponseWriter, _ *http.Request) {
		// A running Service is by definition restored and serving; the
		// not-ready half of the probe lives in the daemon's boot gate,
		// which answers 503 {"ok":true,"ready":false} until the engine
		// is up and swaps this handler in.
		s.writeJSON(w, http.StatusOK, api.Health{OK: true, Ready: true})
	}))
	mux.Handle("/fingerprint", api.MethodGate(http.MethodGet, s.encodeFailed, func(w http.ResponseWriter, _ *http.Request) {
		// The fingerprint hashes schema + row population, so a router
		// can verify a restarted node restored the stripe it owned.
		s.writeJSON(w, http.StatusOK, api.FingerprintResponse{
			Fingerprint: api.CatalogFingerprint(s.Stats().Tables),
		})
	}))
	return mux
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
		s.writeJSON(w, statusFor(err), api.UpdateErrorResponse{
			ErrorResponse: api.ErrorResponse{Error: err.Error()}, Inserted: reply.Inserted, Deleted: reply.Deleted})
		return
	}
	reply.LatencyUs = time.Since(start).Microseconds()
	s.writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := api.DecodeQuery(r.Body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid query: %v", err)})
		return
	}
	binary, blockRows := wire.Negotiate(r.Header.Get("Accept"))
	var rec *trace.Recorder
	if api.WantTrace(q, r) {
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
	out := api.QueryReply{Project: q.Project, Start: start, Trace: rec,
		Resp: api.QueryResponse{Count: reply.Count, Rows: reply.Rows, Columns: reply.Columns, Path: reply.Path.String()}}
	if rec != nil {
		out.Observe = s.observePhases // a method value allocates: only traced replies pay it
	}
	if binary {
		err = out.WriteBinary(w, blockRows)
	} else {
		err = out.WriteJSON(w)
	}
	if err != nil {
		s.encodeFailed(err)
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

// writeJSON writes one JSON reply, counting a failed encode.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := api.WriteJSON(w, status, v); err != nil {
		s.encodeFailed(err)
	}
}

// encodeFailed records a response that could not be encoded or written
// back to the client. The status line is usually gone by the time the
// failure surfaces, so all that is left is to count it (encode_failures
// in /stats) and log it — silently dropping the error would make a
// flapping client or a marshalling bug invisible.
func (s *Service) encodeFailed(err error) {
	s.encodeFailures.Add(1)
	log.Printf("server: response encode failed: %v", err)
}
