package server

import (
	"io"
	"net/http"
	"strconv"

	"adaptiveindex/internal/trace"
)

// This file renders the service's counters and histograms in the
// Prometheus text exposition format at /metrics, through the shared
// trace.PromWriter. Naming: everything is prefixed crack_; cumulative
// counters end in _total; durations are seconds.

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var p trace.PromWriter
	counter, gauge := p.Counter, p.Gauge

	counter("crack_queries_total", "Queries answered.", float64(st.Queries))
	counter("crack_writes_total", "Write requests applied.", float64(st.Writes))
	counter("crack_rejected_total", "Requests refused at the admission limit.", float64(st.Rejected))
	counter("crack_batches_total", "Query batches executed by the scheduler.", float64(st.Batches))
	counter("crack_shared_scans_total", "Queries answered by an execution shared within a batch.", float64(st.SharedScans))
	counter("crack_encode_failures_total", "Responses whose encode or write to the client failed.", float64(st.EncodeFailures))
	counter("crack_traced_queries_total", "Queries that requested span tracing.", float64(st.TracedQueries))
	counter("crack_work_units_total", "Engine cumulative logical work (tuples touched).", float64(st.WorkTotal))
	counter("crack_reorg_events_total", "Reorganisation events appended to the event log.", float64(st.EventLog.LastSeq))
	counter("crack_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(st.Process.GCPauseTotalUs)/1e6)
	counter("crack_gc_cycles_total", "Completed GC cycles.", float64(st.Process.NumGC))

	gauge("crack_in_flight", "Requests currently admitted.", float64(st.InFlight))
	gauge("crack_max_batch_seen", "Largest batch executed so far.", float64(st.MaxBatchSeen))
	gauge("crack_pending_inserts", "Buffered inserts awaiting merge.", float64(st.WriteState.PendingInserts))
	gauge("crack_pending_deletes", "Buffered deletes awaiting merge.", float64(st.WriteState.PendingDeletes))
	gauge("crack_cracked_pieces", "Cracked pieces across all adaptive structures.", float64(st.Structures.Pieces))
	gauge("crack_goroutines", "Live goroutines.", float64(st.Process.Goroutines))
	gauge("crack_heap_alloc_bytes", "Bytes of live heap.", float64(st.Process.HeapAllocBytes))
	gauge("crack_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds)
	gauge("crack_shards", "Engine shards answering each query.", float64(st.Shards))
	gauge("crack_readers", "Epoch read concurrency (0 or 1: serialised executor).", float64(st.Readers))
	if st.Process.SnapshotAgeSeconds > 0 {
		gauge("crack_snapshot_age_seconds", "Age of the restored adaptive-state snapshot.", st.Process.SnapshotAgeSeconds)
	}
	if st.Reorg != nil {
		counter("crack_epochs_published_total", "Epochs published for pinned reads.", float64(st.Reorg.Epoch.Published))
		counter("crack_epochs_retired_total", "Superseded epochs whose pin count returned to zero.", float64(st.Reorg.Epoch.Retired))
		counter("crack_epoch_reads_total", "Queries answered against a pinned epoch.", float64(st.Reorg.Epoch.Reads))
		counter("crack_epoch_read_work_units_total", "Logical work done by epoch-pinned reads (kept apart from crack_work_units_total).", float64(st.Reorg.Epoch.ReadWork))
		counter("crack_reorg_applied_total", "Crack intents applied by the background reorganiser.", float64(st.Reorg.Epoch.IntentsApplied))
		counter("crack_reorg_dropped_total", "Crack intents dropped because the intent queue was full.", float64(st.Reorg.IntentsDropped))
		gauge("crack_reorg_backlog", "Crack intents queued for the background reorganiser.", float64(st.Reorg.Backlog))
		gauge("crack_reorg_lag_seconds", "Queue delay of the most recently applied crack intent.", float64(st.Reorg.LagUs)/1e6)
		gauge("crack_epoch_pins", "Live pin count of the current epoch, publisher included.", float64(st.Reorg.Epoch.Pins))
	}

	if len(st.ShardStats) > 0 {
		p.Meta("crack_shard_work_units_total", "counter", "Per-shard cumulative logical work (tuples touched).")
		for _, ss := range st.ShardStats {
			p.Sample("crack_shard_work_units_total", trace.PromLabel("shard", strconv.Itoa(ss.Shard)), float64(ss.WorkTotal))
		}
		p.Meta("crack_shard_live_rows", "gauge", "Live tuples in each shard's row stripe.")
		for _, ss := range st.ShardStats {
			p.Sample("crack_shard_live_rows", trace.PromLabel("shard", strconv.Itoa(ss.Shard)), float64(ss.LiveRows))
		}
	}

	p.Meta("crack_query_latency_seconds", "histogram", "Server-side query latency, queueing included.")
	p.Histogram("crack_query_latency_seconds", "", &s.hist)

	p.Meta("crack_phase_latency_seconds", "histogram", "Per-phase latency of traced queries.")
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		h := &s.phases[ph]
		if h.Count() == 0 {
			continue
		}
		p.Histogram("crack_phase_latency_seconds", trace.PromLabel("phase", ph.String()), h)
	}

	w.Header().Set("Content-Type", trace.PromContentType)
	if _, err := io.WriteString(w, p.String()); err != nil {
		s.encodeFailed(err)
	}
}
