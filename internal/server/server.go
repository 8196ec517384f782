// Package server is the query service layer: it hosts a multi-table
// adaptive execution engine (internal/engine over an engine.Catalog)
// behind concurrent client sessions, over HTTP or in process.
//
// The paper's adaptive indexing exists to serve exploratory query
// streams whose shape is unknown up front; this package adds the layer
// that accepts such streams from many concurrent users. Wire-level
// queries name a table, a selection column, a range, and optional
// projection columns; the access path is normally left to the engine's
// cost-driven planner (engine.PathAuto), with explicit paths kept for
// experiments.
//
// The service's core is a batch scheduler implementing shared-scan
// batching: queries arriving within a short window are coalesced into
// one batch, duplicate queries (same table, column, predicate,
// projection and path) are answered by a single execution whose result
// is shared, and the remaining unique queries are grouped per
// (table, column) and executed in recursive-median order
// (index.BatchOrder), so a batch subdivides each adaptive structure
// like a balanced tree instead of triggering the ascending-order
// cracking pathology. On the hot-set workloads interactive exploration
// produces (IDEBench: many sessions re-issuing a dashboard's filters),
// most of a batch collapses onto a few shared executions.
//
// A second structural benefit: with the scheduler enabled, the single
// executor goroutine is the only goroutine that ever touches the
// engine, so the engine — which is not concurrency-safe — serves
// concurrent sessions without any latch at all. In direct mode
// (BatchWindow <= 0) a service latch serialises access instead.
//
// With Config.Readers > 1 the single-executor constraint relaxes for
// reads: auto/cracking-path queries are answered by up to Readers
// concurrent goroutines against epoch-pinned immutable snapshots
// (engine.EpochRead), never blocking on the executor, while all
// reorganisation — crack splits, pending-update merges — moves to a
// background reorganiser that consumes the readers' crack intents and
// publishes fresh epochs. Writes and explicit-path queries stay
// serialised exactly as before.
//
// The service also keeps latency in trace.Histograms, limits requests
// in flight, serves an api.Stats snapshot (catalog, structures, planner
// state, scheduler counters), replies through internal/api's writers,
// and snapshots the engine's adaptive state through internal/persist.
package server

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/index"
	"adaptiveindex/internal/trace"
)

// Errors returned by the service.
var (
	// ErrOverloaded is returned when the in-flight admission limit is
	// reached; clients should back off and retry.
	ErrOverloaded = errors.New("server: overloaded, admission limit reached")
	// ErrClosed is returned for queries submitted after Close.
	ErrClosed = errors.New("server: service closed")
	// ErrNotClosed is returned by SnapshotTo on a still-running service.
	ErrNotClosed = errors.New("server: service must be closed before snapshotting")
	// ErrProjectWithCount is returned when a count query names
	// projection columns: counting materialises nothing, so the
	// projection could only be silently discarded after paying for it.
	ErrProjectWithCount = errors.New("server: \"project\" requires op \"select\"")
)

// Config configures a Service.
type Config struct {
	// Engine is the hosted execution engine; its catalog defines the
	// tables queries may name. Required unless Exec is set.
	Engine *engine.Engine
	// Exec, when non-nil, is hosted instead of Engine: any executor
	// satisfying the Exec surface, e.g. a shard-per-core cluster
	// (internal/shard.Cluster). The scheduler serialises access to it
	// exactly as it does for a bare engine.
	Exec Exec
	// DefaultTable and DefaultColumn answer queries that do not name a
	// table or selection column. They default to the catalog's first
	// table (alphabetically) and its first column.
	DefaultTable  string
	DefaultColumn string
	// DefaultPath names the access path for queries that do not request
	// one explicitly. Empty means "auto" (the planner decides).
	DefaultPath string
	// BatchWindow is how long the scheduler waits, after the first
	// query of a batch arrives, for more queries to coalesce with it.
	// Zero or negative disables batching: every query dispatches
	// directly against the engine, serialised by the service latch.
	BatchWindow time.Duration
	// MaxBatch caps how many queries one batch may hold; a full batch
	// executes immediately without waiting out the window (default 64).
	MaxBatch int
	// MaxInFlight is the admission limit: queries beyond it are
	// rejected with ErrOverloaded instead of queueing without bound
	// (default 1024).
	MaxInFlight int
	// Readers, when greater than one, relaxes the single-executor
	// constraint for reads: up to Readers auto/cracking-path queries run
	// concurrently against the current published epoch (immutable
	// piece-catalog snapshots, engine.EpochRead) and never block on the
	// executor. Reads that want reorganisation emit crack intents that a
	// background reorganiser applies off the query path, publishing the
	// next epoch. Writes, explicit-path queries and stats stay on the
	// serialised executor. Values <= 1 keep every query on the
	// pre-existing serialised path, byte-identical on the deterministic
	// cost counters.
	Readers int
	// EventLog receives the engine's structured reorganisation events
	// (crack splits, merge flushes, planner decisions), served at
	// /debug/events. Nil gets a fresh ring of trace.DefaultLogSize.
	EventLog *trace.Log
	// SnapshotTime, when non-zero, is the modification time of the
	// snapshot the engine was restored from; /stats and /metrics report
	// its age so operators can tell how much convergence is inherited.
	SnapshotTime time.Time
}

// Query is one service-level request: "SELECT Project FROM Table WHERE
// Column IN R", executed by the named access path. Empty Table, Column
// or Path fall back to the service defaults.
type Query struct {
	Table   string
	Column  string
	R       column.Range
	Project []string
	// Path is the access-path name ("scan", "cracking", "sideways",
	// "auto"); empty means the service default.
	Path string
}

// Reply is the answer to one Query.
type Reply struct {
	// Count is the number of qualifying rows (always set).
	Count int
	// Rows carries the qualifying row identifiers for select queries.
	// Duplicate queries coalesced into one batch share the same backing
	// vector; callers must treat it as read-only.
	Rows column.IDList
	// Columns holds the projected values, positionally aligned with
	// Rows, for select-project queries.
	Columns map[string][]column.Value
	// Path is the access path that executed the query (the planner's
	// choice, for auto).
	Path engine.AccessPath
	// Done, when non-nil, releases the resources pinned by the reply —
	// for epoch-pinned reads, the epoch the rows were answered from.
	// Callers that stream the reply (the binary wire path) must call it
	// after the last frame is flushed; everyone else calls it as soon as
	// the reply is consumed. Nil for replies that pin nothing.
	Done func()
}

// op selects what a request wants from the engine.
type op uint8

const (
	opCount op = iota
	opSelect
	opStats
	opWrite
)

// request is one query in flight through the scheduler.
type request struct {
	op       op
	q        engine.Query  // fully resolved: defaults applied, path parsed
	writes   []api.WriteOp // opWrite only
	enqueued time.Time
	// dequeued is when the executor pulled the request off the queue
	// (the end of its queue-wait, the start of its batch-assembly wait).
	dequeued time.Time
	// rec is the request's span recorder (nil for untraced requests).
	// Ownership crosses with the request: the submitting goroutine
	// stops touching it at send and resumes at reply, so the channel
	// handoffs are its synchronisation.
	rec  *trace.Recorder
	resp chan result
}

// result is the executor's answer to one request.
type result struct {
	reply Reply
	write api.UpdateResponse
	err   error
	stats *api.Stats
}

// intentReq is one queued crack intent plus its enqueue time, so the
// reorganiser can report its lag (how stale the backlog is).
type intentReq struct {
	in       engine.Intent
	enqueued time.Time
}

// Service hosts an engine behind concurrent sessions. All methods are
// safe for concurrent use.
type Service struct {
	cfg         Config
	exec        Exec
	defaultPath engine.AccessPath
	batched     bool

	// mu serialises direct-mode access to the engine (which is not
	// concurrency-safe), and Stats in direct mode.
	mu sync.Mutex

	queue     chan *request
	closeOnce sync.Once
	closed    chan struct{}
	drained   chan struct{}

	// Epoch read machinery (nil/zero unless cfg.Readers > 1).
	// readerSem admits up to Readers concurrent epoch reads; intents
	// queues the cracks those reads deferred; mergeDue wakes the
	// direct-mode reorganiser when a write left a backlog due for a
	// batched merge; reorgDone signals that reorganiser has exited.
	readers        int
	readerSem      chan struct{}
	intents        chan intentReq
	mergeDue       chan struct{}
	reorgDone      chan struct{}
	intentsQueued  atomic.Uint64
	intentsDropped atomic.Uint64
	// reorgLagUs is the queue delay of the most recently applied intent,
	// in microseconds — the reorganiser-lag gauge behind /metrics.
	reorgLagUs atomic.Uint64

	inFlight atomic.Int64
	queries  atomic.Uint64
	writes   atomic.Uint64
	rejected atomic.Uint64
	batches  atomic.Uint64
	shared   atomic.Uint64
	maxBatch atomic.Int64
	// encodeFailures counts responses whose encode or write to the
	// client failed (connection resets included) — a response the client
	// never saw, on either the JSON or the binary path.
	encodeFailures atomic.Uint64
	hist           trace.Histogram
	// phases aggregates traced queries' span durations per phase;
	// traced counts how many queries asked for tracing.
	phases  [trace.NumPhases]trace.Histogram
	traced  atomic.Uint64
	events  *trace.Log
	started time.Time
}

// NewService creates and starts a service over the configured engine.
// Callers must Close it to stop the scheduler goroutine.
func NewService(cfg Config) (*Service, error) {
	exec := cfg.Exec
	if exec == nil {
		if cfg.Engine == nil {
			return nil, errors.New("server: Config.Engine or Config.Exec is required")
		}
		exec = singleExec{eng: cfg.Engine}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	tables := exec.Tables()
	if len(tables) == 0 {
		return nil, errors.New("server: catalog has no tables")
	}
	if cfg.DefaultTable == "" {
		cfg.DefaultTable = tables[0].Table
	}
	var defTable *api.TableStats
	for i := range tables {
		if tables[i].Table == cfg.DefaultTable {
			defTable = &tables[i]
			break
		}
	}
	if defTable == nil {
		return nil, fmt.Errorf("server: default table: %w: %q", engine.ErrUnknownTable, cfg.DefaultTable)
	}
	if cfg.DefaultColumn == "" {
		if len(defTable.Columns) == 0 {
			return nil, fmt.Errorf("server: default table %q has no columns", cfg.DefaultTable)
		}
		cfg.DefaultColumn = defTable.Columns[0]
	}
	colOK := false
	for _, col := range defTable.Columns {
		if col == cfg.DefaultColumn {
			colOK = true
			break
		}
	}
	if !colOK {
		return nil, fmt.Errorf("server: default column: %w: %q", engine.ErrUnknownColumn, cfg.DefaultColumn)
	}
	defaultPath, err := engine.ParsePath(cfg.DefaultPath)
	if err != nil {
		return nil, fmt.Errorf("server: default path: %w", err)
	}
	if cfg.EventLog == nil {
		cfg.EventLog = trace.NewLog(trace.DefaultLogSize)
	}
	s := &Service{
		cfg:         cfg,
		exec:        exec,
		defaultPath: defaultPath,
		batched:     cfg.BatchWindow > 0,
		closed:      make(chan struct{}),
		drained:     make(chan struct{}),
		events:      cfg.EventLog,
		started:     time.Now(),
	}
	exec.SetEventLog(s.events)
	if cfg.Readers > 1 {
		s.readers = cfg.Readers
		s.readerSem = make(chan struct{}, cfg.Readers)
		s.intents = make(chan intentReq, cfg.MaxInFlight)
		s.mergeDue = make(chan struct{}, 1)
		// Publish the first epoch before any goroutine starts, so epoch
		// reads never observe an engine without one.
		exec.PublishEpoch()
	}
	if s.batched {
		// The queue buffers one admission limit's worth of requests so
		// senders under the limit never block on the executor.
		s.queue = make(chan *request, cfg.MaxInFlight)
		go s.runExecutor()
	} else {
		close(s.drained)
		if s.readers > 1 {
			// No executor goroutine to piggyback on: a dedicated
			// reorganiser drains the intent queue under the latch.
			s.reorgDone = make(chan struct{})
			go s.runReorganiser()
		}
	}
	return s, nil
}

// resolve applies the service defaults and parses the path name.
func (s *Service) resolve(q Query) (engine.Query, error) {
	eq := engine.Query{Table: q.Table, Column: q.Column, R: q.R, Project: q.Project}
	if eq.Table == "" {
		eq.Table = s.cfg.DefaultTable
	}
	if eq.Column == "" {
		eq.Column = s.cfg.DefaultColumn
	}
	if q.Path == "" {
		eq.Path = s.defaultPath
	} else {
		path, err := engine.ParsePath(q.Path)
		if err != nil {
			return engine.Query{}, err
		}
		eq.Path = path
	}
	return eq, nil
}

// Count answers a range predicate on the default table and column,
// batching it with concurrent queries when the scheduler is enabled.
func (s *Service) Count(r column.Range) (int, error) {
	reply, err := s.do(opCount, Query{R: r}, nil)
	return reply.Count, err
}

// Select answers a range predicate on the default table and column
// with the qualifying row identifiers.
func (s *Service) Select(r column.Range) (column.IDList, error) {
	reply, err := s.do(opSelect, Query{R: r}, nil)
	if reply.Done != nil {
		// The row list is a fresh copy; nothing keeps the epoch pinned.
		reply.Done()
	}
	return reply.Rows, err
}

// CountQuery answers a full query without materialising rows to the
// caller.
func (s *Service) CountQuery(q Query) (int, error) {
	reply, err := s.do(opCount, q, nil)
	return reply.Count, err
}

// SelectQuery answers a full query, including projections when
// q.Project names columns. If the reply carries a Done release (epoch
// reads do), the caller must invoke it once the reply is consumed.
func (s *Service) SelectQuery(q Query) (Reply, error) {
	return s.do(opSelect, q, nil)
}

// SelectQueryTraced answers a full query while recording its phase
// spans into rec: queue wait, batch assembly, crack (with any nested
// merge flush), and materialise. The caller owns rec again once the
// reply returns; the wire-encode phase, if any, is the caller's to
// record before Finish.
func (s *Service) SelectQueryTraced(q Query, rec *trace.Recorder) (Reply, error) {
	return s.do(opSelect, q, rec)
}

// Events returns the service's reorganisation event log.
func (s *Service) Events() *trace.Log { return s.events }

// ErrEmptyWrite is returned for write requests that carry no
// mutation, or ops that mix inserts and deletes.
var ErrEmptyWrite = errors.New("server: write op needs either rows to insert or rows to delete")

// Apply applies a sequence of mutations through the same scheduler
// queries use: in batched mode the executor goroutine applies them
// between read batches (writes in a batch run before its reads, in
// arrival order), in direct mode the service latch serialises them.
// An empty table name falls back to the service default. Ops apply in
// order; on error the already-applied prefix stays applied and the
// error is returned.
func (s *Service) Apply(ops []api.WriteOp) (api.UpdateResponse, error) {
	if len(ops) == 0 {
		return api.UpdateResponse{}, ErrEmptyWrite
	}
	for i := range ops {
		if (len(ops[i].Insert) == 0) == (len(ops[i].Delete) == 0) {
			return api.UpdateResponse{}, ErrEmptyWrite
		}
		if ops[i].Table == "" {
			ops[i].Table = s.cfg.DefaultTable
		}
	}
	if s.inFlight.Add(1) > int64(s.cfg.MaxInFlight) {
		s.inFlight.Add(-1)
		s.rejected.Add(1)
		return api.UpdateResponse{}, ErrOverloaded
	}
	defer s.inFlight.Add(-1)

	var res result
	if s.batched {
		req := &request{op: opWrite, writes: ops, enqueued: time.Now(), resp: make(chan result, 1)}
		select {
		case s.queue <- req:
		case <-s.closed:
			return api.UpdateResponse{}, ErrClosed
		}
		select {
		case res = <-req.resp:
		case <-s.drained:
			select {
			case res = <-req.resp:
			default:
				return api.UpdateResponse{}, ErrClosed
			}
		}
	} else {
		select {
		case <-s.closed:
			return api.UpdateResponse{}, ErrClosed
		default:
		}
		s.mu.Lock()
		res = s.executeWrite(ops)
		if s.readers > 1 {
			s.exec.PublishEpoch()
			if s.exec.MergeDue() {
				select {
				case s.mergeDue <- struct{}{}:
				default:
				}
			}
		}
		s.mu.Unlock()
	}
	if res.err != nil {
		return res.write, res.err
	}
	s.writes.Add(1)
	return res.write, nil
}

// executeWrite applies one write request against the executor
// directly.
func (s *Service) executeWrite(ops []api.WriteOp) result {
	var reply api.UpdateResponse
	for _, op := range ops {
		for _, vals := range op.Insert {
			row, err := s.exec.InsertRow(op.Table, vals)
			if err != nil {
				return result{write: reply, err: err}
			}
			reply.Inserted = append(reply.Inserted, row)
		}
		for _, row := range op.Delete {
			if err := s.exec.DeleteRow(op.Table, row); err != nil {
				return result{write: reply, err: err}
			}
			reply.Deleted++
		}
	}
	ws := s.exec.WriteStats()
	reply.PendingInserts = ws.PendingInserts
	reply.PendingDeletes = ws.PendingDeletes
	return result{write: reply}
}

func (s *Service) do(o op, q Query, rec *trace.Recorder) (Reply, error) {
	if o == opCount && len(q.Project) > 0 {
		return Reply{}, ErrProjectWithCount
	}
	eq, err := s.resolve(q)
	if err != nil {
		return Reply{}, err
	}
	eq.CountOnly = o == opCount
	if s.inFlight.Add(1) > int64(s.cfg.MaxInFlight) {
		s.inFlight.Add(-1)
		s.rejected.Add(1)
		return Reply{}, ErrOverloaded
	}
	defer s.inFlight.Add(-1)

	start := time.Now()
	var res result
	if s.epochEligible(eq) {
		// Epoch-pinned read: acquire one of the Readers slots (the wait,
		// if any, is the query's queue-wait phase) and answer against the
		// current epoch without ever touching the executor.
		select {
		case s.readerSem <- struct{}{}:
		case <-s.closed:
			return Reply{}, ErrClosed
		}
		if rec != nil {
			rec.Add(trace.PhaseQueueWait, time.Since(start), trace.Work{})
		}
		res = s.executeEpochRead(o, eq, rec)
		<-s.readerSem
	} else if s.batched {
		req := &request{op: o, q: eq, enqueued: start, rec: rec, resp: make(chan result, 1)}
		select {
		case s.queue <- req:
		case <-s.closed:
			return Reply{}, ErrClosed
		}
		// The executor drains the queue on close, but a request can
		// land in the buffered queue just after the drain finished;
		// watching drained avoids waiting on a reply that will never
		// come.
		select {
		case res = <-req.resp:
		case <-s.drained:
			select {
			case res = <-req.resp:
			default:
				return Reply{}, ErrClosed
			}
		}
	} else {
		select {
		case <-s.closed:
			return Reply{}, ErrClosed
		default:
		}
		// In direct mode the service latch plays the queue's role: the
		// wait for it is the query's queue-wait phase.
		s.mu.Lock()
		if rec != nil {
			rec.Add(trace.PhaseQueueWait, time.Since(start), trace.Work{})
			eq.Trace = rec
		}
		res = s.executeOne(o, eq)
		if s.readers > 1 {
			// The query may have cracked; make the result visible to
			// concurrent epoch readers (a no-op when nothing changed).
			s.exec.PublishEpoch()
		}
		s.mu.Unlock()
	}
	if res.err != nil {
		return Reply{}, res.err
	}
	s.queries.Add(1)
	s.hist.Observe(time.Since(start))
	return res.reply, nil
}

// executeOne answers a single request against the executor directly.
// Count-only queries (eq.CountOnly) materialise nothing.
func (s *Service) executeOne(o op, eq engine.Query) result {
	res, err := s.exec.Run(eq)
	if err != nil {
		return result{err: err}
	}
	reply := Reply{Count: res.Count, Path: res.Path}
	if o == opSelect {
		reply.Rows = res.Rows
		reply.Columns = res.Columns
	}
	return result{reply: reply}
}

// epochEligible reports whether a resolved query is served by the epoch
// read pool: reads on the auto or cracking path, when epoch reads are
// enabled. Explicit scan and sideways paths keep their serialised
// executor semantics (they exist to exercise specific structures).
func (s *Service) epochEligible(eq engine.Query) bool {
	return s.readers > 1 && (eq.Path == engine.PathAuto || eq.Path == engine.PathCracking)
}

// executeEpochRead answers one read against the current epoch. It runs
// on the caller's goroutine, concurrently with other epoch reads and
// with the executor's writes and reorganisation. A read that wants
// reorganisation enqueues a crack intent for the background reorganiser
// (dropped, and counted, if the queue is full — readers never block on
// reorganisation). Select replies keep the epoch pinned until the
// caller invokes Reply.Done.
func (s *Service) executeEpochRead(o op, eq engine.Query, rec *trace.Recorder) result {
	if rec != nil {
		eq.Trace = rec
	}
	res, info, err := s.exec.EpochRead(eq)
	if err != nil {
		return result{err: err}
	}
	if info.NeedsReorg {
		select {
		case s.intents <- intentReq{in: engine.Intent{Table: eq.Table, Column: eq.Column, R: eq.R}, enqueued: time.Now()}:
			s.intentsQueued.Add(1)
		default:
			s.intentsDropped.Add(1)
		}
	}
	reply := Reply{Count: res.Count, Path: res.Path}
	if o == opSelect {
		reply.Rows = res.Rows
		reply.Columns = res.Columns
		reply.Done = info.Release
	} else if info.Release != nil {
		// Counts materialise nothing that could alias the epoch.
		info.Release()
	}
	return result{reply: reply}
}

// reorgBudget bounds how long one reorganiser pass keeps applying
// queued intents before it publishes and yields the engine.
const reorgBudget = time.Millisecond

// reorganise runs one reorganiser pass: it applies first (when non-nil)
// and the intents queued behind it for at most reorgBudget, drains the
// pending backlogs due for a batched merge, and publishes the next
// epoch once. Intents still queued wait for the next pass. It must run
// wherever the executor is owned: on the executor goroutine in batched
// mode, under the service latch in direct mode.
func (s *Service) reorganise(first *intentReq) {
	start := time.Now()
	for in := first; in != nil; {
		s.reorgLagUs.Store(uint64(time.Since(in.enqueued) / time.Microsecond))
		applied := time.Now()
		// An intent comes from a read that validated its table and column
		// against a published epoch, so application cannot fail on a
		// static catalog; an error here would only repeat on retry.
		_ = s.exec.ApplyIntent(in.in)
		s.phases[trace.PhaseReorgApply].Observe(time.Since(applied))
		in = nil
		if time.Since(start) < reorgBudget {
			select {
			case next := <-s.intents:
				in = &next
			default:
			}
		}
	}
	s.exec.MergePending(false)
	s.exec.PublishEpoch()
}

// quiesce applies every queued intent and merges every pending backlog,
// so columns the readers deferred work on converge before the service
// stops. Same ownership rule as reorganise.
func (s *Service) quiesce() {
	for {
		select {
		case in := <-s.intents:
			s.reorganise(&in)
		default:
			s.exec.MergePending(true)
			s.exec.PublishEpoch()
			return
		}
	}
}

// runReorganiser is the direct-mode background reorganiser: it runs a
// pass under the service latch whenever intents are queued or a write
// left a backlog due for a batched merge, yielding the latch between
// passes, and quiesces the engine when the service closes.
func (s *Service) runReorganiser() {
	defer close(s.reorgDone)
	for {
		select {
		case in := <-s.intents:
			s.mu.Lock()
			s.reorganise(&in)
			s.mu.Unlock()
		case <-s.mergeDue:
			s.mu.Lock()
			s.reorganise(nil)
			s.mu.Unlock()
		case <-s.closed:
			s.mu.Lock()
			s.quiesce()
			s.mu.Unlock()
			return
		}
	}
}

// runExecutor is the scheduler loop: it owns the engine exclusively,
// coalesces queued requests into batches and executes them.
func (s *Service) runExecutor() {
	defer close(s.drained)
	for {
		var batch []*request
		select {
		case req := <-s.queue:
			req.dequeued = time.Now()
			batch = append(batch, req)
		case in := <-s.intents:
			// No queries waiting: spend the idle time on deferred
			// reorganisation. (s.intents is nil unless epoch reads are
			// enabled, and a nil channel never fires.)
			s.reorganise(&in)
			continue
		case <-s.closed:
			s.drainAndExit()
			return
		}
		timer := time.NewTimer(s.cfg.BatchWindow)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			if s.drainQueued(&batch) {
				continue
			}
			// Nothing queued: yield once so runnable senders get to
			// publish their requests before the batch is judged
			// complete (on few cores an admitted sender may simply not
			// have run yet).
			runtime.Gosched()
			if s.drainQueued(&batch) {
				continue
			}
			// Group-commit rule: when every admitted query is already in
			// the batch, waiting out the rest of the window cannot grow
			// it — closed-loop sessions are all blocked on this very
			// batch — so execute immediately. The window only delays
			// execution while stragglers are still on their way in.
			if int64(len(batch)) >= s.inFlight.Load() {
				break
			}
			select {
			case req := <-s.queue:
				req.dequeued = time.Now()
				batch = append(batch, req)
			case <-timer.C:
				break collect
			case <-s.closed:
				break collect
			}
		}
		timer.Stop()
		s.executeBatch(batch)
		if s.readers > 1 {
			// The batch may have cracked or written; merge a backlog its
			// writes made due and publish so epoch readers see it (a
			// no-op when nothing changed).
			s.exec.MergePending(false)
			s.exec.PublishEpoch()
		}
	}
}

// drainQueued moves every immediately available request into the batch
// without blocking and reports whether it moved any.
func (s *Service) drainQueued(batch *[]*request) bool {
	got := false
	for len(*batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			req.dequeued = time.Now()
			*batch = append(*batch, req)
			got = true
		default:
			return got
		}
	}
	return got
}

// drainAndExit answers everything still queued at close time — no
// admitted request is left waiting — and then quiesces the epoch
// machinery, so a column the readers deferred reorganisation on still
// converges before the service stops.
func (s *Service) drainAndExit() {
	for {
		select {
		case req := <-s.queue:
			req.dequeued = time.Now()
			s.executeBatch([]*request{req})
		default:
			if s.readers > 1 {
				s.quiesce()
			}
			return
		}
	}
}

// execKey identifies one distinct execution inside a batch: two
// requests share an execution exactly when they agree on table,
// selection column, predicate, projection list and access path.
type execKey struct {
	table  string
	column string
	r      column.Range
	proj   string
	path   engine.AccessPath
}

func keyOf(eq engine.Query) execKey {
	return execKey{
		table:  eq.Table,
		column: eq.Column,
		r:      eq.R,
		proj:   strings.Join(eq.Project, "\x1f"),
		path:   eq.Path,
	}
}

// slot is one distinct execution of a batch and its shared outcome.
// wantRows records whether any coalesced request needs materialised
// rows; a slot wanted only by counts executes count-only.
type slot struct {
	eq       engine.Query
	wantRows bool
	res      result
	// rec is the first traced waiter's recorder: the shared execution
	// records its engine phases there, and spans captures them (the
	// children added between mark and the execution's end) so the other
	// traced waiters of the slot can import copies.
	rec   *trace.Recorder
	mark  int
	spans []*trace.Span
}

// executeBatch answers one batch: duplicate queries collapse onto a
// single execution, the unique queries are grouped per (table, column)
// and executed in recursive-median order, and results are fanned back
// out to every waiter.
func (s *Service) executeBatch(batch []*request) {
	if len(batch) == 0 {
		return
	}

	// Stats requests are answered from the executor so the snapshot is
	// consistent with a quiescent engine. Write requests run before the
	// batch's reads, in arrival order: a batch observes its own writes,
	// and the reads never interleave with mutations mid-execution.
	var queries []*request
	for _, req := range batch {
		switch req.op {
		case opStats:
			st := s.statsLocked()
			req.resp <- result{stats: &st}
		case opWrite:
			req.resp <- s.executeWrite(req.writes)
		default:
			queries = append(queries, req)
		}
	}
	if len(queries) == 0 {
		return
	}
	s.batches.Add(1)
	for {
		prev := s.maxBatch.Load()
		if int64(len(queries)) <= prev || s.maxBatch.CompareAndSwap(prev, int64(len(queries))) {
			break
		}
	}

	// Deduplicate: one execution per distinct (table, column, range,
	// projection, path) key.
	uniq := make(map[execKey]*slot, len(queries))
	var order []execKey
	for _, req := range queries {
		k := keyOf(req.q)
		sl, ok := uniq[k]
		if !ok {
			sl = &slot{eq: req.q}
			uniq[k] = sl
			order = append(order, k)
		}
		if req.op == opSelect {
			sl.wantRows = true
		}
		if req.rec != nil && sl.rec == nil {
			sl.rec = req.rec
		}
	}
	s.shared.Add(uint64(len(queries) - len(order)))

	// Back-fill the scheduler phases for traced queries: the time on the
	// queue, then the wait while the rest of the batch assembled. The
	// engine phases follow once the slot executes.
	assembled := time.Now()
	for _, req := range queries {
		if req.rec == nil {
			continue
		}
		req.rec.Add(trace.PhaseQueueWait, req.dequeued.Sub(req.enqueued), trace.Work{})
		req.rec.Add(trace.PhaseBatchAssembly, assembled.Sub(req.dequeued), trace.Work{})
	}

	// Group the unique executions by (table, column) and run each group
	// in recursive-median order so the batch subdivides the adaptive
	// structure geometrically regardless of arrival order.
	groups := make(map[engine.TableColumn][]*slot)
	var groupOrder []engine.TableColumn
	for _, k := range order {
		tc := engine.TableColumn{Table: k.table, Column: k.column}
		if _, ok := groups[tc]; !ok {
			groupOrder = append(groupOrder, tc)
		}
		groups[tc] = append(groups[tc], uniq[k])
	}
	for _, tc := range groupOrder {
		slots := groups[tc]
		ranges := make([]column.Range, len(slots))
		for i, sl := range slots {
			ranges[i] = sl.eq.R
		}
		for _, i := range index.BatchOrder(ranges) {
			sl := slots[i]
			sl.eq.CountOnly = !sl.wantRows
			o := opSelect
			if sl.eq.CountOnly {
				o = opCount
			}
			if sl.rec != nil {
				sl.mark = sl.rec.ChildCount()
				sl.eq.Trace = sl.rec
			}
			sl.res = s.executeOne(o, sl.eq)
			if sl.rec != nil {
				sl.spans = sl.rec.ChildrenSince(sl.mark)
			}
		}
	}

	for _, req := range queries {
		sl := uniq[keyOf(req.q)]
		res := sl.res
		if res.err == nil && req.op == opCount {
			res.reply = Reply{Count: res.reply.Count, Path: res.reply.Path}
		}
		// Traced waiters that shared another query's execution get copies
		// of its engine spans: the work happened once, but each span tree
		// should still explain where the query's latency went.
		if req.rec != nil && req.rec != sl.rec {
			req.rec.Import(sl.spans)
		}
		req.resp <- res
	}
}

// observePhases folds one finished traced query's span tree into the
// per-phase latency histograms behind /stats and /metrics.
func (s *Service) observePhases(root *trace.Span) {
	if root == nil {
		return
	}
	s.traced.Add(1)
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if int(sp.Phase) < len(s.phases) {
			s.phases[sp.Phase].Observe(time.Duration(sp.DurUs) * time.Microsecond)
		}
		for _, c := range sp.Spans {
			walk(c)
		}
	}
	walk(root)
}

// Close stops accepting queries, waits for the scheduler to drain every
// admitted request (and the reorganiser to apply the remaining crack
// intents), and quiesces the engine. It is idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.drained
	if s.reorgDone != nil {
		<-s.reorgDone
	}
}

// SnapshotTo writes the hosted executor's adaptive state (cracked
// columns, sideways maps, planner estimates; one segment per shard for
// a cluster) through internal/persist. The service must be closed
// first, so the snapshot sees a quiescent executor.
func (s *Service) SnapshotTo(w io.Writer) error {
	select {
	case <-s.closed:
	default:
		return ErrNotClosed
	}
	<-s.drained
	return s.exec.SnapshotTo(w)
}

// String renders the service configuration for logs.
func (s *Service) String() string {
	mode := "direct"
	if s.batched {
		mode = fmt.Sprintf("batched(window=%s,max=%d)", s.cfg.BatchWindow, s.cfg.MaxBatch)
	}
	var tables []string
	for _, ti := range s.exec.Tables() {
		tables = append(tables, ti.Table)
	}
	desc := fmt.Sprintf("server{tables=%s default=%s.%s path=%s %s inflight<=%d}",
		strings.Join(tables, ","), s.cfg.DefaultTable, s.cfg.DefaultColumn, s.defaultPath, mode, s.cfg.MaxInFlight)
	if n := s.exec.Shards(); n > 1 {
		desc = desc[:len(desc)-1] + fmt.Sprintf(" shards=%d}", n)
	}
	if s.readers > 1 {
		desc = desc[:len(desc)-1] + fmt.Sprintf(" readers=%d}", s.readers)
	}
	return desc
}
